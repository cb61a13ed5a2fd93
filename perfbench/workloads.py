"""The four benchmark workloads: seeded inputs, items and their checks.

An item is one unit of user-visible work.  `Item.run` is the timed part
and calls only the library; `Item.check` runs untimed afterwards, compares
the result against an independent route and returns the bytes that go
into the run's output digest.  A failed check raises `ItemFailure`.

Library functions are always reached through their module
(`flagcore.classify_bruteforce`, not a name imported here), so that the
traced run's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

from diagflag import cli, diagembed, egraph, flagcore, indlimit, ratlin


class ItemFailure(Exception):
    """An item's output disagreed with the independent route.

    `failed` is the number of items inside a batch that failed; None means
    the whole batch."""

    def __init__(self, message: str, failed: int | None = None) -> None:
        super().__init__(message)
        self.failed = failed


@dataclass
class Item:
    run: Callable[[], object]
    check: Callable[[object], bytes]
    # For a batch item (one call doing many items): the per-item latencies
    # of its last run.
    cases: Callable[[], list[float]] | None = None


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """Random integer matrix of determinant +-1: a row permutation of a
    product of unit lower and unit upper triangular matrices."""
    lower = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if j > i else 0) for j in range(n)] for i in range(n)]
    prod = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    rng.shuffle(prod)
    return prod


def level_map(rng: random.Random, n: int, top: int) -> list[int]:
    """Random surjective level map on {1..n}, relabelled onto 1..p."""
    values = [rng.randint(1, top) for _ in range(n)]
    labels = {v: i + 1 for i, v in enumerate(sorted(set(values)))}
    return [labels[v] for v in values]


def flag_from_rows(ambient: int, matrix: list[list[int]], dims) -> ratlin.Flag:
    """The flag whose members are spanned by the leading rows of `matrix`."""
    return ratlin.Flag(
        ambient, tuple(ratlin.RatSubspace.span(ambient, matrix[:d]) for d in dims)
    )


class Workload:
    name = ""
    tail = 90  # the percentile reported as latency_tail_ms
    min_items = 1  # items every run completes; the digest covers exactly these

    def __init__(self, seed: int, root: Path, tiny: bool, wrong_expected: bool) -> None:
        self.seed = seed
        self.root = root
        self.tiny = tiny
        self.wrong_expected = wrong_expected
        self.recorder = None  # set for the traced pass
        self.probe = None  # the run's SpeedProbe, for items that take many probes
        self.rng = random.Random(f"perfbench-{self.name}-{seed}")

    def rounds(self) -> Iterator[list[Item]]:
        """The untraced run's closed loop: an endless stream of rounds.  A
        run stops only between rounds, and every round has the same mix of
        inputs, so runs of different lengths measure the same mix."""
        raise NotImplementedError

    def traced_items(self) -> list[Item]:
        """The fixed item list that the traced run times twice."""
        raise NotImplementedError

    def finish(self) -> list[tuple[int, str]]:
        """Checks that need the whole run: (items failed, message) pairs."""
        return []

    def expect(self, value, index: int):
        """`value`, except for the first item when the self-check asks for
        a deliberately wrong expectation."""
        if self.wrong_expected and index == 0:
            return not value if isinstance(value, bool) else ("wrong", value)
        return value


# -- classify -----------------------------------------------------------------


class Classify(Workload):
    """Brute-force classification of a stratified sample of the
    criterion-05 instance set: every valid graph with d*m <= 6, times
    every source flag type.  One item is one classified embedding."""

    name = "classify"
    tail = 90

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.strata: dict[tuple[int, int], list] = {}
        for d in range(1, 7):
            for m in range(2, 7):
                if d * m > 6:
                    continue
                for q in range(1, m + 1):
                    for p in range(1, q * d + 1):
                        for g in egraph.enumerate_valid_graphs(q, p, d):
                            for dims in itertools.combinations(range(1, m), q - 1):
                                self.strata.setdefault((d, m), []).append((g, m, dims))
        # Cost grows with the target flag length and the edge count, so a
        # systematic sample in this order has nearly the same latency
        # distribution at every offset.
        for members in self.strata.values():
            members.sort(key=lambda inst: (inst[0].p, len(inst[0].edges), inst[2]))
        self.step = 400 if self.tiny else 10
        self.offset = self.rng.randrange(self.step)
        self.min_items = len(self._round(0, self.step))

    def _round(self, r: int, step: int) -> list:
        """A systematic one-in-`step` sample of each (d, m) stratum, at
        least one instance per stratum, run in a seeded order."""
        picked = []
        start = (self.offset + r) % step
        for members in self.strata.values():
            if len(members) > step:
                picked.extend(members[start::step])
            else:
                picked.append(members[start % len(members)])
        random.Random(f"perfbench-classify-{self.seed}-{step}-{r}").shuffle(picked)
        return picked

    def _item(self, index: int, g, m: int, dims) -> Item:
        def run():
            ft = flagcore.FlagType(m, dims)
            emb = diagembed.DiagonalEmbedding(g, ft)
            evaluate = emb.evaluate
            if self.recorder is not None:
                counters = self.recorder.counters
                plain = evaluate

                def evaluate(flag):
                    counters["flagcore.classify.evaluate_calls"] += 1
                    return plain(flag)

            return flagcore.classify_bruteforce(evaluate, ft, seed=0)

        def check(outcome) -> bytes:
            expected = self.expect(diagembed.is_standard_extension_graph(g), index)
            if outcome.kind not in ("strict_se", "not_se"):
                raise ItemFailure(f"unexpected kind {outcome.kind} for {g} on {dims}")
            if (outcome.kind == "strict_se") != expected:
                raise ItemFailure(
                    f"classifier says {outcome.kind}, graph criterion says {expected} for {g} on {dims}"
                )
            return canonical(outcome.to_json_obj())

        return Item(run, check)

    def rounds(self) -> Iterator[list[Item]]:
        index = 0
        for r in itertools.count():
            sample = self._round(r, self.step)
            yield [self._item(index + i, *inst) for i, inst in enumerate(sample)]
            index += len(sample)

    def traced_items(self) -> list[Item]:
        step = 400 if self.tiny else 30
        return [self._item(i, *inst) for i, inst in enumerate(self._round(0, step))]


# -- oracle -------------------------------------------------------------------


def sweep_cases(n_max: int, d_set) -> int:
    """Cases of `oracle_sweep(n_max, d_set)`, counted independently: for
    each n and each d dividing it, the surjective maps from {1..n} onto
    some {1..p} (the ordered Bell numbers)."""
    bell = [1]
    for k in range(1, n_max + 1):
        bell.append(sum(comb(k, j) * bell[k - j] for j in range(1, k + 1)))
    return sum(bell[n] for n in range(2, n_max + 1) for d in d_set if n % d == 0)


class Oracle(Workload):
    """`oracle_sweep(n_max, {2, 3})` exactly as the library runs it, one call
    per item of the loop.  One item is one oracle case; the per-case
    latency is the time between successive level maps the sweep draws."""

    name = "oracle"
    tail = 99

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.n_max = 4 if self.tiny else 6
        self.d_set = (2, 3)
        self.min_items = sweep_cases(self.n_max, self.d_set)

    def _sweep_item(self, index: int, n_max: int, d_set: tuple[int, ...]) -> Item:
        latencies: list[float] = []
        expected_cases = sweep_cases(n_max, d_set)

        def timed_surjections(n):
            # Resumed when the sweep asks for the next map, so each interval
            # is one case's work.
            for alpha in original(n):
                t0 = perf_counter()
                yield alpha
                latencies.append(perf_counter() - t0)
                self.probe.tick()

        original = egraph.surjections

        def run():
            latencies.clear()
            diagembed.surjections = timed_surjections
            try:
                return diagembed.oracle_sweep(n_max, set(d_set))
            finally:
                diagembed.surjections = original

        def check(report) -> bytes:
            expected = self.expect(expected_cases, index)
            bad = len(report.parabolic_disagreements) + len(report.unipotent_disagreements)
            if report.cases != expected or len(latencies) != report.cases:
                raise ItemFailure(f"sweep ran {report.cases} cases, expected {expected}")
            if bad:
                raise ItemFailure(f"{bad} combinatorial verdicts disagree with the oracle", failed=bad)
            return canonical(report.to_json_obj())

        return Item(run, check, cases=lambda: list(latencies))

    def rounds(self) -> Iterator[list[Item]]:
        for index in itertools.count():
            yield [self._sweep_item(index, self.n_max, self.d_set)]

    def traced_items(self) -> list[Item]:
        # One block count, chosen by the seed, keeps the two traced passes
        # of a run within the time limit.
        d = self.d_set[self.seed % len(self.d_set)]
        return [self._sweep_item(0, self.n_max, (d,))]


# -- flagmaps -----------------------------------------------------------------


class FlagMaps(Workload):
    """Seeded flag-map requests.  Four in five evaluate a random level-map
    embedding on F and g.F, check equivariance, and compute the Picard
    pullback and the constant spaces; the fifth composes consecutive
    canonical-exhaustion steps and compares against stepwise evaluation.
    One item is one request."""

    name = "flagmaps"
    tail = 99
    # Request shapes, used in rotation so that every pool has the same mix:
    # (d, m) of the level map, with n = d * m <= 8, and (chain size, n_max,
    # steps composed) of the exhaustion.
    map_shapes = ((2, 2), (2, 3), (2, 4), (3, 2))
    compose_shapes = ((2, 5, 2), (3, 5, 3), (2, 6, 3), (3, 6, 2))

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rng = self.rng
        # 2000 distinct requests: p99 then has 20 items beyond it, and which
        # requests a seed happened to draw weighs little on it.
        size = 20 if self.tiny else 2000
        self.min_items = size
        self.pool = []
        for i in range(size):
            if i % 5 == 4:
                shape = self.compose_shapes[(i // 5) % len(self.compose_shapes)]
                self.pool.append(("compose", self._compose_request(rng, *shape)))
            else:
                shape = self.map_shapes[(i - i // 5) % len(self.map_shapes)]
                self.pool.append(("equivariance", self._map_request(rng, *shape)))

    @staticmethod
    def _map_request(rng: random.Random, d: int, m: int) -> dict:
        while True:
            values = level_map(rng, d * m, d * m // 2)
            if max(values) < 2:
                continue
            result = egraph.build_from_alpha(egraph.SurjectionAlpha.of(values), m)
            if isinstance(result, egraph.ParabolicRestriction) and result.flag_type is not None:
                return {
                    "alpha": values,
                    "m": m,
                    "dims": result.flag_type.dims,
                    "flag": unimodular(m, rng),
                    "g": unimodular(m, rng),
                }

    @staticmethod
    def _compose_request(rng: random.Random, chain: int, n_max: int, length: int) -> dict:
        while True:
            sigma = [rng.randint(1, chain) for _ in range(n_max + 1)]
            if set(sigma) == set(range(1, chain + 1)):
                break
        start = rng.randint(1, n_max - length + 1)  # ambient of the first source
        return {
            "sigma": sigma,
            "chain": chain,
            "n_max": n_max,
            "start": start,
            "length": length,
            "flag": unimodular(start, rng),
        }

    def _item(self, index: int, kind: str, req: dict) -> Item:
        if kind == "equivariance":
            return self._map_item(index, req)
        return self._compose_item(index, req)

    def _map_item(self, index: int, req: dict) -> Item:
        def run():
            m = req["m"]
            alpha = egraph.SurjectionAlpha.of(req["alpha"])
            emb = diagembed.embedding_from_alpha(alpha, m)
            flag = flag_from_rows(m, req["flag"], req["dims"])
            g = ratlin.as_matrix(req["g"])
            image = emb.evaluate(flag)
            moved = emb.evaluate(flag.apply(g))
            expected_moved = image.apply(ratlin.block_diagonal(g, emb.graph.d))
            pullback = diagembed.picard_pullback(emb)
            constants = diagembed.constant_spaces(emb)
            return image, moved, expected_moved, pullback, constants

        def check(result) -> bytes:
            image, moved, expected_moved, pullback, constants = result
            if moved != self.expect(expected_moved, index):
                raise ItemFailure(f"evaluate(g.F) != g.evaluate(F) for alpha={req['alpha']}")
            dims = req["dims"]
            for j, (member, const, row) in enumerate(zip(image.chain, constants, pullback.matrix)):
                if not (const <= member and const <= moved.chain[j]):
                    raise ItemFailure(f"constant space {j + 1} is not in the image for alpha={req['alpha']}")
                if member.dim != const.dim + sum(c * k for c, k in zip(row, dims)):
                    raise ItemFailure(f"member {j + 1} dimension disagrees with the pullback for alpha={req['alpha']}")
            return canonical(
                [image.to_json_obj(), moved.to_json_obj(), [list(r) for r in pullback.matrix]]
            )

        return Item(run, check)

    def _compose_item(self, index: int, req: dict) -> Item:
        def run():
            steps = indlimit.canonical_exhaustion(req["sigma"], req["chain"], req["n_max"])
            chosen = [data for _, data in steps[req["start"] - 1 : req["start"] - 1 + req["length"]]]
            source = steps[req["start"] - 1][0]
            flag = flag_from_rows(req["start"], req["flag"], source.dims)
            composed = chosen[0]
            for data in chosen[1:]:
                composed = flagcore.se_compose(composed, data)
            direct = flagcore.se_eval(composed, flag)
            stepwise = flag
            for data in chosen:
                stepwise = flagcore.se_eval(data, stepwise)
            return composed, direct, stepwise

        def check(result) -> bytes:
            composed, direct, stepwise = result
            if direct != self.expect(stepwise, index):
                raise ItemFailure(f"composed evaluation differs from stepwise for sigma={req['sigma']}")
            if direct.dims != composed.target_type.dims:
                raise ItemFailure(f"composed image has the wrong type for sigma={req['sigma']}")
            return canonical(direct.to_json_obj())

        return Item(run, check)

    def rounds(self) -> Iterator[list[Item]]:
        # One rotation of both shape lists: 16 level-map and 4 compose requests.
        size = 20
        for r in itertools.count():
            start = r * size
            yield [self._item(i, *self.pool[i % len(self.pool)]) for i in range(start, start + size)]

    def traced_items(self) -> list[Item]:
        count = 20 if self.tiny else 200
        return [self._item(i, *self.pool[i]) for i in range(count)]


# -- cli ----------------------------------------------------------------------

SN2 = {"factors": {"2": "inf"}}
PRODUCT_LEVEL_GRAPH = {"q": 3, "p": 3, "d": 2, "edges": [[1, 1, 1], [3, 2, 1], [2, 2, 2], [3, 3, 2]]}
MIXED_GRAPH = {"q": 3, "p": 4, "d": 2, "edges": [[1, 1, 1], [2, 3, 1], [3, 4, 1], [2, 2, 2], [3, 3, 2]]}


class Cli(Workload):
    """One cold `python -m diagflag.cli` process per command, one at a
    time, over a fixed command mix with seeded documents.  One item is one
    process; its exit code and stdout bytes are checked.

    The two commands whose cost depends most on their input, `classify`
    and `constants`, get fixed reference documents and every command the
    same `--seed`, so that the latency percentiles do not hinge on which
    documents a seed drew."""

    name = "cli"
    tail = 90

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rng = self.rng
        self.docs = self.root / ".perfbench" / "work" / f"cli-{self.seed}"
        self.docs.mkdir(parents=True, exist_ok=True)
        graphs = list(egraph.enumerate_valid_graphs(3, 4, 2))
        graph = self._write("graph.json", rng.choice(graphs).to_json_obj())
        mixed = self._write("mixed.json", MIXED_GRAPH)
        maybe_invalid = rng.choice(graphs).to_json_obj()
        if rng.random() < 0.5:
            maybe_invalid["edges"] = maybe_invalid["edges"][1:]
        checked = self._write("validate.json", maybe_invalid)
        level = self._write("level.json", PRODUCT_LEVEL_GRAPH)
        sn = self._write("sn.json", SN2)

        restrict_alpha = level_map(rng, 6, 4)
        embed_alpha, embed_dims = self._parabolic(rng, 3, 2)
        matrix = unimodular(2, rng)
        flag = self._write(
            "flag.json",
            {"ambient": 2, "chain": [[[str(x) for x in row] for row in matrix[:k]] for k in embed_dims]},
        )
        embedding = self._write("embedding.json", {"alpha": [1, 2, 2, 3], "m": 2})
        geometric = self._write(
            "geometric.json",
            {"finite_quotients": [], "tail": {"kind": "geometric", "base": 1, "ratio": 2},
             "infinite_quotients": False, "ordered": None},
        )
        constant = self._write(
            "constant.json",
            {"finite_quotients": [], "tail": {"kind": "constant", "value": rng.randint(1, 3)},
             "infinite_quotients": True, "ordered": None},
        )
        unknown = self._write(
            "unknown.json",
            {"finite_quotients": [], "tail": {"kind": "geometric", "base": 1, "ratio": 3},
             "infinite_quotients": False, "ordered": None},
        )
        spec = self._write("spec.json", {"s1": 2, "cycle": [2]})
        realized = self._write(
            "realized.json",
            {"finite_quotients": [1], "tail": None, "infinite_quotients": True, "ordered": [1, "inf"]},
        )
        malformed = self._write_text(
            "malformed.json",
            rng.choice(['{"q": 3, "p": 4, "d": 2}', '{"q": 3, "p": 4, "d": 2, "edges": [[1, 1', "[]"]),
        )
        seed = ["--seed", "11"]
        # (argv, expected exit code, expected verdict or None)
        self.commands = [
            (seed + ["restrict", "--alpha", ",".join(map(str, restrict_alpha)), "--m", "3"], 0, None),
            (seed + ["picard", "--graph", graph], 0, "ok"),
            (seed + ["embed", "--alpha", ",".join(map(str, embed_alpha)), "--m", "2", "--flag", flag], 0, "ok"),
            (seed + ["classify", "--embedding", embedding], 0, "not_se"),
            (seed + ["constants", "--graph", mixed, "--source-ambient", "3"], 0, "ok"),
            (seed + ["validate-egraph", "--graph", checked], 0, None),
            (seed + ["dot", "--graph", graph], 0, None),
            (seed + ["factor", "--graph", level], 0, "ok"),
            (seed + ["oracle", "--n-max", "4", "--d", "2"], 0, "agree"),
            (seed + ["admissible", "--gft", geometric, "--sn", sn], 0, "Admissible"),
            (seed + ["admissible", "--gft", constant, "--sn", sn], 0, "NotAdmissible"),
            (seed + ["admissible", "--gft", unknown, "--sn", sn, "--bound", "16"], 0, "Unknown"),
            (seed + ["exhaust", "--sn", sn, "--spec", spec, "--gft", realized, "--levels", "6"], 0, "valid"),
            (seed + ["validate-egraph", "--graph", malformed], 1, None),
        ]
        rounds = 1 if self.tiny else 8  # 8 * 14 = 112 processes: p90 has 11 beyond it
        self.min_items = rounds * len(self.commands)
        self.first: dict[int, bytes] = {}
        self.process_counts: dict[int, int] = {}

    @staticmethod
    def _parabolic(rng: random.Random, d: int, m: int) -> tuple[list[int], tuple[int, ...]]:
        """A random level map on {1..d*m} whose restriction to block size m
        is parabolic with a nonempty flag type, and that type's dims."""
        while True:
            values = level_map(rng, d * m, d * m // 2 + 1)
            result = egraph.build_from_alpha(egraph.SurjectionAlpha.of(values), m)
            if isinstance(result, egraph.ParabolicRestriction) and result.flag_type is not None:
                return values, result.flag_type.dims

    def _write(self, name: str, obj) -> str:
        return self._write_text(name, json.dumps(obj))

    def _write_text(self, name: str, text: str) -> str:
        path = self.docs / name
        path.write_text(text)
        return str(path.relative_to(self.root))

    def _check_output(self, index: int, k: int, code: int, out: bytes) -> bytes:
        argv, expected_code, verdict = self.commands[k]
        expected_code = self.expect(expected_code, index)
        if code != expected_code:
            raise ItemFailure(f"exit code {code}, expected {expected_code}: {argv}")
        if k not in self.first:
            if verdict is not None and json.loads(out)["verdict"] != verdict:
                raise ItemFailure(f"verdict is not {verdict}: {argv}")
            if expected_code == 1 and out:
                raise ItemFailure(f"an input error printed a report: {argv}")
            self.first[k] = out
        elif out != self.first[k]:
            raise ItemFailure(f"stdout differs from the first run of {argv}")
        return out

    def _process_item(self, index: int, k: int) -> Item:
        argv = self.commands[k][0]

        def run():
            return subprocess.run(
                [sys.executable, "-m", "diagflag.cli", *argv],
                cwd=self.root,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=60,
            )

        def check(proc) -> bytes:
            self.process_counts[k] = self.process_counts.get(k, 0) + 1
            if b"Traceback" in proc.stderr:
                raise ItemFailure(f"traceback on stderr: {argv}")
            return self._check_output(index, k, proc.returncode, proc.stdout)

        return Item(run, check)

    def _inprocess_item(self, index: int, k: int) -> Item:
        argv = self.commands[k][0]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue().encode()

        def check(result) -> bytes:
            code, out = result
            return self._check_output(index, k, code, out)

        return Item(run, check)

    def _order(self, r: int) -> list[int]:
        order = list(range(len(self.commands)))
        random.Random(f"perfbench-cli-{self.seed}-{r}").shuffle(order)
        return order

    def rounds(self) -> Iterator[list[Item]]:
        for r in itertools.count():
            start = r * len(self.commands)
            yield [self._process_item(start + i, k) for i, k in enumerate(self._order(r))]

    def traced_items(self) -> list[Item]:
        rounds = 1 if self.tiny else 2
        return [
            self._inprocess_item(r * len(self.commands) + i, k)
            for r in range(rounds)
            for i, k in enumerate(self._order(r))
        ]

    def finish(self) -> list[tuple[int, str]]:
        """Every command run in-process through `cli.main` (the worker's
        working directory is the repository root) must print the same
        bytes as its cold processes did; a mismatch fails them all."""
        problems = []
        for k, (argv, _, _) in enumerate(self.commands):
            if k not in self.first:
                continue
            item = self._inprocess_item(-1, k)
            try:
                item.check(item.run())
            except ItemFailure as exc:
                problems.append((self.process_counts.get(k, 1), f"in-process run differs: {exc}"))
        return problems


WORKLOADS = {w.name: w for w in (Classify, Oracle, FlagMaps, Cli)}
