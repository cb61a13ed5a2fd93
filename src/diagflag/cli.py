"""Batch command-line front end: JSON in, one JSON report out.

Every subcommand reads schema-validated JSON documents, runs one library
operation, and prints a single JSON report with a ``verdict`` field.
Negative mathematical verdicts (a non-parabolic restriction, an
inadmissible type) exit 0: the tool distinguishes "the math says no"
from failure.  Exit 1 marks an input or schema error, exit 2 an internal
consistency failure: an `oracle` disagreement, or an `InternalCheckError`
the library raises.  Each command runs one route (`classify` the exact
graph route, which samples nothing); the routes that cross-check
`classify`, `constants`, `factor` and `exhaust --gft` run in the tests,
not on every call.  An embedding option that the embedding's source does
not read is an input error, and so is any option given twice.  All
randomness flows from --seed, and reports are byte-identical given
identical inputs and seed.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import re
import sys
from typing import Sequence

from . import diagembed, egraph, flagcore, indlimit, supernat
from .errors import DomainError, InternalCheckError, ScaleError, is_int
from .ratlin import Flag

SCHEMA_VERSION = "3"
# The most steps `exhaust --levels` accepts, so the term list is bounded.
_LEVELS_LIMIT = 1000
# The most entries, target ambient times the sum of the target member
# dimensions, of the image `embed` builds or the constant spaces
# `constants` prints: about 0.7 s and a 4 MB report.
_IMAGE_ENTRY_LIMIT = 10**6


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _builtin_sha256():
    """sha256 from the interpreter's builtin module, `_sha2` (3.12+) or
    `_sha256` (3.10-3.11): `hashlib` gives the same digests but loads
    OpenSSL, a few ms of every cold process.  `hashlib` serves only where
    neither module is built."""
    for name in ("_sha2", "_sha256", "hashlib"):
        try:
            return __import__(name).sha256
        except ImportError:
            pass


_sha256 = _builtin_sha256()


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
    return _sha256(canonical_json(battery).encode()).hexdigest()[:16]



class _Once(argparse.Action):
    """Store an option's value, refusing a second occurrence, which argparse
    would let silently replace the first.  The options seen are kept on the
    namespace, which the global parser and the command's parser share."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise DomainError(f"{self.option_strings[0]} given twice")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _CliParser(argparse.ArgumentParser):
    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.register("action", None, _Once)  # every option added without an action

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


def _refuse_unread(args, *read: str) -> None:
    """DomainError for an embedding option given that the source `read[0]`,
    reading the options `read`, would drop."""
    for name in ("embedding", "alpha", "m", "graph", "source_dims", "source_ambient"):
        if name not in read and getattr(args, name) is not None:
            option, source = (f"--{x.replace('_', '-')}" for x in (name, read[0]))
            raise DomainError(f"{option} cannot be combined with {source}")


def _load_embedding(args) -> diagembed.DiagonalEmbedding:
    if args.embedding:
        _refuse_unread(args, "embedding")
        return diagembed.DiagonalEmbedding.from_json_obj(_load_json(args.embedding))
    if args.alpha:
        _refuse_unread(args, "alpha", "m")
        if args.m is None:
            raise DomainError("--alpha requires --m")
        alpha = egraph.SurjectionAlpha.of(_parse_csv_ints(args.alpha))
        return diagembed.embedding_from_alpha(alpha, args.m)
    if args.graph:
        _refuse_unread(args, "graph", "source_dims", "source_ambient")
        g = egraph.EGraph.from_json_obj(_load_json(args.graph))
        if not args.source_dims:
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


def _check_image_entries(emb: diagembed.DiagonalEmbedding, command: str) -> None:
    entries = emb.n * sum(emb.target_type.dims)
    if entries > _IMAGE_ENTRY_LIMIT:
        raise ScaleError(f"{command} is limited to images of {_IMAGE_ENTRY_LIMIT} entries; got {entries}")


def _cmd_embed(args) -> dict:
    emb = _load_embedding(args)
    _check_image_entries(emb, "embed")
    doc = _load_json(args.flag)
    ambient, chain = doc.get("ambient"), doc.get("chain")
    # A flag whose ambient or member count cannot match, or whose entries
    # are too long or too many, is refused before `Flag.from_json_obj`
    # reduces its members.
    if is_int(ambient) and isinstance(chain, list) and (ambient, len(chain)) != (emb.m, emb.source_type.length):
        flagcore.refuse_mismatched_flag(ambient)
    image = emb.evaluate(Flag.from_json_obj(doc))
    return {
        "verdict": "ok",
        "target_type": emb.target_type.to_json_obj(),
        "image": image.to_json_obj(),
    }


def _cmd_picard(args) -> dict:
    if args.graph and not args.source_dims:
        _refuse_unread(args, "graph")
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


def _cmd_classify(args) -> dict:
    emb = _load_embedding(args)
    flagcore.check_classify_scale(emb.n)
    result = diagembed.classify(emb, seed=args.seed)
    return {"verdict": result.kind, "witness": result.to_json_obj()["data"]}


def _cmd_constants(args) -> dict:
    """The closed-form constant spaces.  The support needs a real source
    type; when only a graph is given, use the type with members of every
    dimension 1..q-1 in Q^max(q, 2), or in Q^(--source-ambient)."""
    if args.graph and not args.source_dims:
        _refuse_unread(args, "graph", "source_ambient")
        g = egraph.EGraph.from_json_obj(_load_json(args.graph))
        ambient = max(g.q, 2) if args.source_ambient is None else args.source_ambient
        emb = diagembed.DiagonalEmbedding(g, flagcore.FlagType(ambient, tuple(range(1, g.q))))
    else:
        emb = _load_embedding(args)
    _check_image_entries(emb, "constants")
    closed = diagembed.constant_spaces(emb)
    return {
        "verdict": "ok",
        "constants": [c.to_json_obj() for c in closed],
        "dims": [c.dim for c in closed],
        "support": list(flagcore._support(closed, emb.target_type.dims)),
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
    if report.ok and args.gft:
        gft = indlimit.GeneralizedFlagType.from_json_obj(_load_json(args.gft))
        realization = indlimit.build_realization_sn_graph(gft, sn, spec, levels=args.levels)
        out["realization"] = {
            "sn_graph": realization.sn_graph.to_json_obj(),
            "level_types": [t.to_json_obj() for t in realization.level_types],
            "level_quotients": [list(q) for q in realization.level_quotients],
        }
    return out


def _cmd_dot(args) -> str:
    g = egraph.require_valid(egraph.EGraph.from_json_obj(_load_json(args.graph)))
    return egraph.to_dot(g)


def _embedding_options(p) -> None:
    p.add_argument("--embedding", help="embedding JSON ({alpha,m} or {graph,source_type})")
    p.add_argument("--alpha", help="comma-separated level map values")
    p.add_argument("--m", type=_parse_int, help="block size")
    p.add_argument("--graph", help="graph JSON file")
    p.add_argument("--source-dims", dest="source_dims", help="comma-separated source member dims ('-' for none)")
    p.add_argument("--source-ambient", dest="source_ambient", type=_parse_int, help="source ambient dimension")


def _graph_option(p) -> None:
    p.add_argument("--graph", required=True)


def _restrict_options(p) -> None:
    p.add_argument("--alpha", required=True)
    p.add_argument("--m", type=_parse_int, required=True)


def _embed_options(p) -> None:
    _embedding_options(p)
    p.add_argument("--flag", required=True)


def _admissible_options(p) -> None:
    p.add_argument("--gft", required=True)
    p.add_argument("--sn", required=True)
    p.add_argument("--bound", type=_parse_int, default=64)


def _oracle_options(p) -> None:
    p.add_argument("--n-max", dest="n_max", type=_parse_int, required=True)
    p.add_argument("--d", required=True, help="comma-separated block counts")


def _exhaust_options(p) -> None:
    p.add_argument("--sn", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--gft")
    p.add_argument("--levels", type=_parse_int, default=6)


# Each command's help line, handler and option adder, in `--help` order.
_COMMANDS = {
    "validate-egraph": ("check the structural clauses of a graph", _cmd_validate_egraph, _graph_option),
    "restrict": ("parabolicity analysis of a diagonal restriction", _cmd_restrict, _restrict_options),
    "embed": ("evaluate an embedding on a flag", _cmd_embed, _embed_options),
    "picard": ("pullback matrix on Picard generators", _cmd_picard, _embedding_options),
    "classify": ("standard-extension recognition from the graph", _cmd_classify, _embedding_options),
    "constants": ("constant spaces of an embedding and their support", _cmd_constants, _embedding_options),
    "admissible": ("decide realizability of a generalized flag type", _cmd_admissible, _admissible_options),
    "factor": ("split a linear graph into monochromatic factors", _cmd_factor, _graph_option),
    "oracle": ("sweep combinatorial verdicts against the exact oracle", _cmd_oracle, _oracle_options),
    "exhaust": ("validate an exhaustion; optionally realize a flag type over it", _cmd_exhaust, _exhaust_options),
    "dot": ("deterministic DOT rendering of a graph", _cmd_dot, _graph_option),
}


@functools.cache
def build_parser(command: str | None = None) -> _CliParser:
    """The global parser: `--seed`, `--out`, the command name and the rest
    of argv; or, given `command`, that command's own parser.  A process
    builds each once, and only those it parses with: building one takes
    most of an in-process call, and parsing leaves it as it was."""
    if command is not None:
        help_line, _, add_options = _COMMANDS[command]
        parser = _CliParser(prog=f"diagflag {command}", description=help_line)
        add_options(parser)
        return parser
    listing = "".join(f"\n  {name:<17}{help_line}" for name, (help_line, _, _) in _COMMANDS.items())
    parser = _CliParser(prog="diagflag", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
                        epilog="commands (`diagflag COMMAND --help` lists its options):" + listing)
    parser.add_argument("--seed", type=_parse_int, default=0, help="seed for all randomized checks")
    parser.add_argument("--out", help="write the report here instead of stdout")
    # The command name and the rest of argv in one list, matched as a subparser
    # matches them: a plain positional would take a `--` around the name.
    parser.add_argument("command", nargs=argparse.PARSER, choices=_COMMANDS, help="the command and its options")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.command, *rest = args.command
        build_parser(args.command).parse_args(rest, namespace=args)
        payload = _COMMANDS[args.command][1](args)
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
    """The process entry point: `main` on sys.argv, then exit with its code.

    Once the report is written the heap is frozen, so the collections that
    interpreter shutdown runs scan none of it: about 13,500 tracked objects,
    2-3 ms a pass on a 2-vCPU VM, in memory the OS is about to reclaim.
    That is safe: shutdown still runs atexit and flushes stdout before it
    tears down the modules, `--out` is closed by its `with` block, and no
    library object needs a cycle collected at exit.  `main` leaves the
    collector alone, so in-process callers keep a normal one."""
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
