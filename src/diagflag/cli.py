"""Batch command-line front end: JSON in, one JSON report out.

Every subcommand reads schema-validated JSON documents, runs one library
operation, and prints a single JSON report with a ``verdict`` field.
Negative mathematical verdicts (a non-parabolic restriction, an
inadmissible type) exit 0: the tool distinguishes "the math says no"
from failure.  Exit 1 marks an input or schema error, exit 2 an internal
consistency failure such as `classify` finding that the graph criterion
and the brute-force classification disagree, or an oracle mismatch.
All randomness flows from --seed, and reports are byte-identical given
identical inputs and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from typing import Sequence

from . import diagembed, egraph, flagcore, indlimit, supernat
from .errors import DomainError, InternalCheckError, ScaleError
from .ratlin import Flag

SCHEMA_VERSION = "1"
# The most steps `exhaust --levels` accepts, so the term list is bounded.
_LEVELS_LIMIT = 1000
# The most entries, target ambient times the sum of the target member
# dimensions, of the image `embed` builds: about 0.7 s and a 4 MB report.
_IMAGE_ENTRY_LIMIT = 10**6
# The largest target dimension d*m whose constant spaces `constants`
# samples: each sample reduces a random m x m matrix and intersects every
# member in Q^(d*m), and a full flag in Q^16 takes about 0.5 s.
_SAMPLING_SCALE_LIMIT = 16


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def selftest_digest() -> str:
    """Digest of a fixed battery of reference computations; a changed
    digest means the library's arithmetic changed."""
    alpha = egraph.SurjectionAlpha.of([1, 2, 2, 3])
    restriction = egraph.build_from_alpha(alpha, 2)
    assert isinstance(restriction, egraph.ParabolicRestriction)
    mixed = egraph.EGraph(
        3, 4, 2, frozenset({(1, 1, 1), (2, 3, 1), (3, 4, 1), (2, 2, 2), (3, 3, 2)})
    )
    battery = {
        "restriction": restriction.graph.to_json_obj(),
        "pullback": diagembed.graph_pullback(mixed).to_json_obj(),
        "divides": [
            supernat.divides_sn(8, supernat.SupernaturalNumber.from_factors({2: supernat.INF})),
            supernat.divides_sn(6, supernat.SupernaturalNumber.from_factors({2: supernat.INF})),
        ],
    }
    return hashlib.sha256(canonical_json(battery).encode()).hexdigest()[:16]


class _CliParser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise DomainError(message)


def _load_json(path: str) -> dict:
    """The JSON object in `path`; every document kind is an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not JSON or UTF-8, or too deep
        raise DomainError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DomainError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    return obj


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc}") from exc


# An integer option or token is ASCII decimal: `int()` would also read
# Unicode digits, underscores and surrounding spaces.
_DECIMAL = re.compile("-?[0-9]+")


def _parse_int(text: str) -> int:
    """The argparse type of the single-integer options."""
    if not _DECIMAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # past the interpreter's digit limit
        raise argparse.ArgumentTypeError(_too_many_digits(text)) from None


def _too_many_digits(token: str) -> str:
    digits, limit = len(token.lstrip("-")), sys.get_int_max_str_digits()
    return f"integer {token[:12]}... has {digits} digits, beyond the limit of {limit}"


def _parse_csv_ints(text: str) -> tuple[int, ...]:
    tokens = text.split(",")
    if not all(_DECIMAL.fullmatch(x) for x in tokens):
        raise DomainError(f"expected comma-separated integers, got {text!r}")
    try:
        return tuple(int(x) for x in tokens)
    except ValueError:  # the token with the most digits is past the interpreter's limit
        x = max(tokens, key=lambda t: len(t.lstrip("-")))
        raise DomainError(_too_many_digits(x)) from None


def _load_embedding(args) -> diagembed.DiagonalEmbedding:
    if getattr(args, "embedding", None):
        return diagembed.DiagonalEmbedding.from_json_obj(_load_json(args.embedding))
    if getattr(args, "alpha", None):
        if getattr(args, "m", None) is None:
            raise DomainError("--alpha requires --m")
        alpha = egraph.SurjectionAlpha.of(_parse_csv_ints(args.alpha))
        return diagembed.embedding_from_alpha(alpha, args.m)
    if getattr(args, "graph", None):
        g = egraph.EGraph.from_json_obj(_load_json(args.graph))
        if not getattr(args, "source_dims", None):
            raise DomainError("--graph requires --source-dims and --source-ambient")
        dims = _parse_csv_ints(args.source_dims) if args.source_dims != "-" else ()
        ambient = args.source_ambient
        if ambient is None:
            raise DomainError("--graph requires --source-ambient")
        return diagembed.DiagonalEmbedding(g, flagcore.FlagType(ambient, dims))
    raise DomainError("specify the embedding via --embedding, --alpha/--m, or --graph/--source-*")


def _cmd_validate_egraph(args) -> dict:
    g = egraph.EGraph.from_json_obj(_load_json(args.graph))
    report = egraph.validate_egraph(g)
    return {
        "verdict": "valid" if report.ok else "invalid",
        "violations": list(report.violations),
    }


def _cmd_restrict(args) -> dict:
    alpha = egraph.SurjectionAlpha.of(_parse_csv_ints(args.alpha))
    result = egraph.build_from_alpha(alpha, args.m)
    if isinstance(result, egraph.NotParabolic):
        return {
            "verdict": "NotParabolic",
            "witness": [list(result.witness[0]), list(result.witness[1])],
        }
    return {
        "verdict": "Parabolic",
        "flag_type": None if result.flag_type is None else result.flag_type.to_json_obj(),
        "beta_image": [list(b) for b in result.beta_image],
        "graph": result.graph.to_json_obj(),
    }


def _cmd_embed(args) -> dict:
    emb = _load_embedding(args)
    entries = emb.n * sum(emb.target_type.dims)
    if entries > _IMAGE_ENTRY_LIMIT:
        raise ScaleError(f"embed is limited to images of {_IMAGE_ENTRY_LIMIT} entries; got {entries}")
    flag = Flag.from_json_obj(_load_json(args.flag))
    image = emb.evaluate(flag)
    return {
        "verdict": "ok",
        "target_type": emb.target_type.to_json_obj(),
        "image": image.to_json_obj(),
    }


def _cmd_picard(args) -> dict:
    if args.graph and not args.source_dims:
        g = egraph.require_valid(egraph.EGraph.from_json_obj(_load_json(args.graph)))
    else:
        g = _load_embedding(args).graph
    pullback = diagembed.graph_pullback(g)
    return {
        "verdict": "ok",
        "matrix": [list(r) for r in pullback.matrix],
        "linear": diagembed.is_linear_graph(g),
        "standard_extension": diagembed.is_standard_extension_graph(g),
    }


def _load_sampling_embedding(args) -> diagembed.DiagonalEmbedding:
    """Sampling needs a real source type.  When only a graph is given, use
    the type with members of every dimension 1..q-1 in Q^max(q, 2), or in
    Q^(--source-ambient)."""
    if getattr(args, "graph", None) and not getattr(args, "source_dims", None):
        g = egraph.EGraph.from_json_obj(_load_json(args.graph))
        ambient = max(g.q, 2) if args.source_ambient is None else args.source_ambient
        return diagembed.DiagonalEmbedding(
            g, flagcore.FlagType(ambient, tuple(range(1, g.q)))
        )
    return _load_embedding(args)


def _cmd_classify(args) -> dict:
    emb = _load_embedding(args)
    flagcore.check_classify_scale(emb.n)
    result = flagcore.classify_bruteforce(emb.evaluate, emb.source_type, seed=args.seed)
    graph_verdict = diagembed.is_standard_extension_graph(emb.graph)
    if graph_verdict != (result.kind == "strict_se"):
        raise InternalCheckError(
            "graph criterion and brute-force classification disagree"
        )
    return {"verdict": result.kind, "witness": result.to_json_obj()["data"]}


def _cmd_constants(args) -> dict:
    emb = _load_sampling_embedding(args)
    if emb.n > _SAMPLING_SCALE_LIMIT:
        raise ScaleError(f"constant-space sampling is limited to target dimension {_SAMPLING_SCALE_LIMIT}; got {emb.n}")
    closed = diagembed.constant_spaces(emb)
    sampled, support = flagcore.support_and_constants(
        flagcore.sample_images(emb.evaluate, emb.source_type, seed=args.seed),
        window=args.window,
    )
    if tuple(sampled) != tuple(closed):
        raise InternalCheckError("sampled constant spaces differ from the closed form")
    return {
        "verdict": "ok",
        "constants": [c.to_json_obj() for c in closed],
        "dims": [c.dim for c in closed],
        "support": list(support),
    }


def _cmd_admissible(args) -> dict:
    gft = indlimit.GeneralizedFlagType.from_json_obj(_load_json(args.gft))
    sn = supernat.SupernaturalNumber.from_json_obj(_load_json(args.sn))
    result = indlimit.admissible(gft, sn, bound=args.bound)
    if isinstance(result, indlimit.Admissible):
        return {"verdict": "Admissible", "certificate": result.certificate.to_json_obj()}
    if isinstance(result, indlimit.NotAdmissible):
        return {"verdict": "NotAdmissible", "proof": result.proof.to_json_obj()}
    return {
        "verdict": "Unknown",
        "reason": result.reason,
        "candidates_searched": result.candidates_searched,
    }


def _cmd_factor(args) -> dict:
    g = egraph.EGraph.from_json_obj(_load_json(args.graph))
    factors = indlimit.factor_linear_egraph(g)
    if not indlimit.factor_pullback_additivity(g, factors):
        raise InternalCheckError("factor pullbacks do not sum to the input pullback")
    return {
        "verdict": "ok",
        "factors": [
            {
                "colour": f.colour,
                "graph": f.graph.to_json_obj(),
                "left_map": list(f.left_map),
                "right_map": list(f.right_map),
            }
            for f in factors
        ],
    }


def _cmd_oracle(args) -> dict:
    d_set = set(_parse_csv_ints(args.d))
    report = diagembed.oracle_sweep(args.n_max, d_set)
    out = {
        "verdict": "agree" if report.ok else "disagree",
        "report": report.to_json_obj(),
    }
    if not report.ok:  # a combinatorial/oracle mismatch is an internal failure
        out["_exit"] = 2
    return out


def _cmd_exhaust(args) -> dict:
    if args.levels < 0:
        raise DomainError(f"--levels must be at least 0, got {args.levels}")
    if args.levels > _LEVELS_LIMIT:
        raise DomainError(f"--levels is limited to {_LEVELS_LIMIT}, got {args.levels}")
    sn = supernat.SupernaturalNumber.from_json_obj(_load_json(args.sn))
    spec = supernat.ExhaustionSpec.from_json_obj(_load_json(args.spec))
    report = supernat.validate_exhaustion(spec, sn)
    terms = []
    for term in spec.terms(args.levels + 1):
        str(term)  # a ValueError past the printing limit, before a larger term is built
        terms.append(term)
    out = {
        "verdict": "valid" if report.ok else "invalid",
        "violations": list(report.violations),
        "terms": terms,
    }
    if report.ok and getattr(args, "gft", None):
        gft = indlimit.GeneralizedFlagType.from_json_obj(_load_json(args.gft))
        realization = indlimit.build_realization_sn_graph(gft, sn, spec, levels=args.levels)
        sn_report = indlimit.validate_sn_graph(realization.sn_graph, upto=args.levels)
        if not sn_report.ok:
            raise InternalCheckError(
                f"constructed chain failed validation: {sn_report.violations}"
            )
        out["realization"] = {
            "sn_graph": realization.sn_graph.to_json_obj(),
            "level_types": [t.to_json_obj() for t in realization.level_types],
            "level_quotients": [list(q) for q in realization.level_quotients],
        }
    return out


def _cmd_dot(args) -> str:
    g = egraph.require_valid(egraph.EGraph.from_json_obj(_load_json(args.graph)))
    return egraph.to_dot(g)


def build_parser() -> _CliParser:
    parser = _CliParser(prog="diagflag", description=__doc__)
    parser.add_argument("--seed", type=_parse_int, default=0, help="seed for all randomized checks")
    parser.add_argument("--out", help="write the report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_embedding_flags(p) -> None:
        p.add_argument("--embedding", help="embedding JSON ({alpha,m} or {graph,source_type})")
        p.add_argument("--alpha", help="comma-separated level map values")
        p.add_argument("--m", type=_parse_int, help="block size")
        p.add_argument("--graph", help="graph JSON file")
        p.add_argument("--source-dims", dest="source_dims", help="comma-separated source member dims ('-' for none)")
        p.add_argument("--source-ambient", dest="source_ambient", type=_parse_int, help="source ambient dimension")

    p = sub.add_parser("validate-egraph", help="check the structural clauses of a graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=_cmd_validate_egraph)

    p = sub.add_parser("restrict", help="parabolicity analysis of a diagonal restriction")
    p.add_argument("--alpha", required=True)
    p.add_argument("--m", type=_parse_int, required=True)
    p.set_defaults(fn=_cmd_restrict)

    p = sub.add_parser("embed", help="evaluate an embedding on a flag")
    add_embedding_flags(p)
    p.add_argument("--flag", required=True)
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("picard", help="pullback matrix on Picard generators")
    add_embedding_flags(p)
    p.set_defaults(fn=_cmd_picard)

    p = sub.add_parser("classify", help="standard-extension recognition by brute force")
    add_embedding_flags(p)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("constants", help="constant spaces: closed form vs sampling")
    add_embedding_flags(p)
    p.add_argument("--window", type=_parse_int, default=25)
    p.set_defaults(fn=_cmd_constants)

    p = sub.add_parser("admissible", help="decide realizability of a generalized flag type")
    p.add_argument("--gft", required=True)
    p.add_argument("--sn", required=True)
    p.add_argument("--bound", type=_parse_int, default=64)
    p.set_defaults(fn=_cmd_admissible)

    p = sub.add_parser("factor", help="split a linear graph into monochromatic factors")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=_cmd_factor)

    p = sub.add_parser("oracle", help="sweep combinatorial verdicts against the exact oracle")
    p.add_argument("--n-max", dest="n_max", type=_parse_int, required=True)
    p.add_argument("--d", required=True, help="comma-separated block counts")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("exhaust", help="validate an exhaustion; optionally realize a flag type over it")
    p.add_argument("--sn", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--gft")
    p.add_argument("--levels", type=_parse_int, default=6)
    p.set_defaults(fn=_cmd_exhaust)

    p = sub.add_parser("dot", help="deterministic DOT rendering of a graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=_cmd_dot)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.fn(args)
        exit_code = 0
        if isinstance(payload, str):  # DOT output is emitted verbatim
            text = payload
        else:
            exit_code = payload.pop("_exit", 0)
            report = {
                "schema_version": SCHEMA_VERSION,
                "selftest_digest": selftest_digest(),
                "command": args.command,
                "seed": args.seed,
                **payload,
            }
            text = canonical_json(report)
        if args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
    except DomainError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except ValueError as exc:
        # An exact result whose integers str() refuses to print.
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        sys.stderr.write(f"input error: the report holds an integer beyond {limit} digits\n")
        return 1
    except InternalCheckError as exc:
        sys.stderr.write(f"internal check failed: {exc}\n")
        return 2
    return exit_code


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
