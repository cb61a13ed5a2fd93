"""Batch command-line front end: JSON in, one JSON report out.

Each command reads schema-validated JSON documents, runs one library
operation by one route (the routes that cross-check it run in the tests)
and prints one JSON report with a `verdict` field.  Exit 0 covers negative
verdicts too (a non-parabolic restriction, an inadmissible type); exit 1
marks an input or schema error, exit 2 an internal consistency failure (an
`oracle` disagreement or an `InternalCheckError`).  One small parser reads
argv from the command table as argparse would, without loading it: each
option takes one value, next or after `=`, and may be cut to a unique
prefix.  An option given twice, or one that the embedding's source does not
read, is an input error.  All randomness flows from --seed, and reports are
byte-identical given identical inputs and seed.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace
from typing import Sequence

from . import diagembed, egraph, flagcore, indlimit, supernat
from .errors import DomainError, InternalCheckError, ScaleError, is_int
from .ratlin import Flag

SCHEMA_VERSION = "3"
# The most steps `exhaust --levels` accepts, so the term list is bounded.
_LEVELS_LIMIT = 1000
# The most entries, target ambient times the sum of the target member
# dimensions, of the image `embed` builds or the constant spaces
# `constants` prints (about 0.7 s and a 4 MB report), and with eps's
# target ambient times m more, of the witness `classify` prints.
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


# An integer option or token is ASCII decimal, `-?[0-9]+`: `int()` would
# also read Unicode digits, underscores and surrounding spaces.
def _is_decimal(token: str) -> bool:
    return token.isascii() and token.removeprefix("-").isdigit()


def _parse_int(text: str, option: str) -> int:
    """The value of the single-integer option `option`: ASCII decimal digits,
    with an optional minus sign, within the interpreter's digit limit."""
    if not _is_decimal(text):
        raise DomainError(f"argument {option}: expected an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # past the interpreter's digit limit
        raise DomainError(f"argument {option}: {_too_many_digits(text)}") from None


def _too_many_digits(token: str) -> str:
    digits, limit = len(token.lstrip("-")), sys.get_int_max_str_digits()
    return f"integer {token[:12]}... has {digits} digits, beyond the limit of {limit}"


def _parse_csv_ints(text: str) -> tuple[int, ...]:
    tokens = text.split(",")
    if not all(_is_decimal(x) for x in tokens):
        raise DomainError(f"expected comma-separated integers, got {text!r}")
    try:
        return tuple(int(x) for x in tokens)
    except ValueError:  # the token with the most digits is past the interpreter's limit
        x = max(tokens, key=lambda t: len(t.lstrip("-")))
        raise DomainError(_too_many_digits(x)) from None


def _refuse_unread(args, *read: str) -> None:
    """DomainError for an embedding option given that the source `read[0]`,
    reading the options `read`, would drop."""
    for flag in _EMBEDDING_OPTIONS:
        if flag not in read and getattr(args, flag[2:].replace("-", "_")) is not None:
            raise DomainError(f"{flag} cannot be combined with {read[0]}")


def _load_embedding(args) -> diagembed.DiagonalEmbedding:
    if args.embedding:
        _refuse_unread(args, "--embedding")
        return diagembed.DiagonalEmbedding.from_json_obj(_load_json(args.embedding))
    if args.alpha:
        _refuse_unread(args, "--alpha", "--m")
        if args.m is None:
            raise DomainError("--alpha requires --m")
        alpha = egraph.SurjectionAlpha.of(_parse_csv_ints(args.alpha))
        return diagembed.embedding_from_alpha(alpha, args.m)
    if args.graph:
        _refuse_unread(args, "--graph", "--source-dims", "--source-ambient")
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
    return {"verdict": "valid" if report.ok else "invalid", "violations": list(report.violations)}


def _cmd_restrict(args) -> dict:
    alpha = egraph.SurjectionAlpha.of(_parse_csv_ints(args.alpha))
    result = egraph.build_from_alpha(alpha, args.m)
    if isinstance(result, egraph.NotParabolic):
        return {"verdict": "NotParabolic", "witness": [list(result.witness[0]), list(result.witness[1])]}
    return {
        "verdict": "Parabolic",
        "flag_type": None if result.flag_type is None else result.flag_type.to_json_obj(),
        "beta_image": [list(b) for b in result.beta_image],
        "graph": result.graph.to_json_obj(),
    }


def _check_image_entries(emb: diagembed.DiagonalEmbedding, command: str, witness: bool = False) -> None:
    """ScaleError past `_IMAGE_ENTRY_LIMIT` entries: the image's, n times the
    sum of the target member dimensions, and with `witness` eps's n*m too
    (a point source's image has no entries, but its eps has)."""
    entries = emb.n * (sum(emb.target_type.dims) + witness * emb.m)
    if entries > _IMAGE_ENTRY_LIMIT:
        noun = "witnesses" if witness else "images"
        raise ScaleError(f"{command} is limited to {noun} of {_IMAGE_ENTRY_LIMIT} entries; got {entries}")


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
    return {"verdict": "ok", "target_type": emb.target_type.to_json_obj(), "image": image.to_json_obj()}


def _cmd_picard(args) -> dict:
    if args.graph and not args.source_dims:
        _refuse_unread(args, "--graph")
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
    _check_image_entries(emb, "classify", witness=True)
    result = diagembed.classify(emb)
    return {"verdict": result.kind, "witness": result.to_json_obj()["data"]}


def _cmd_constants(args) -> dict:
    """The closed-form constant spaces.  The support needs a real source
    type; when only a graph is given, use the type with members of every
    dimension 1..q-1 in Q^max(q, 2), or in Q^(--source-ambient)."""
    if args.graph and not args.source_dims:
        _refuse_unread(args, "--graph", "--source-ambient")
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
    return {"verdict": "Unknown", "reason": result.reason, "candidates_searched": result.candidates_searched}


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
    out = {"verdict": "agree" if report.ok else "disagree", "report": report.to_json_obj()}
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


# An option's type (`int` or `str`), whether it is required, and its default.
_TEXT, _INT, _REQUIRED, _INT_REQUIRED = (str, False, None), (int, False, None), (str, True, None), (int, True, None)
_GLOBAL_OPTIONS = {"--seed": (int, False, 0), "--out": _TEXT}
_EMBEDDING_OPTIONS = {"--embedding": _TEXT, "--alpha": _TEXT, "--m": _INT, "--graph": _TEXT, "--source-dims": _TEXT,
                      "--source-ambient": _INT}
_GRAPH_OPTION = {"--graph": _REQUIRED}

# Each command's help line, handler and options, in `--help` order.
_COMMANDS = {
    "validate-egraph": ("check the structural clauses of a graph", _cmd_validate_egraph, _GRAPH_OPTION),
    "restrict": ("parabolicity analysis of a diagonal restriction", _cmd_restrict,
                 {"--alpha": _REQUIRED, "--m": _INT_REQUIRED}),
    "embed": ("evaluate an embedding on a flag", _cmd_embed, {**_EMBEDDING_OPTIONS, "--flag": _REQUIRED}),
    "picard": ("pullback matrix on Picard generators", _cmd_picard, _EMBEDDING_OPTIONS),
    "classify": ("standard-extension recognition from the graph", _cmd_classify, _EMBEDDING_OPTIONS),
    "constants": ("constant spaces of an embedding and their support", _cmd_constants, _EMBEDDING_OPTIONS),
    "admissible": ("decide realizability of a generalized flag type", _cmd_admissible,
                   {"--gft": _REQUIRED, "--sn": _REQUIRED, "--bound": (int, False, 64)}),
    "factor": ("split a linear graph into monochromatic factors", _cmd_factor, _GRAPH_OPTION),
    "oracle": ("sweep combinatorial verdicts against the exact oracle", _cmd_oracle,
               {"--n-max": _INT_REQUIRED, "--d": _REQUIRED}),
    "exhaust": ("validate an exhaustion; optionally realize a flag type over it", _cmd_exhaust,
                {"--sn": _REQUIRED, "--spec": _REQUIRED, "--gft": _TEXT, "--levels": (int, False, 6)}),
    "dot": ("deterministic DOT rendering of a graph", _cmd_dot, _GRAPH_OPTION),
}
_HELP = ("-h", "--help")


def _classify(flags, token: str):
    """`token` as argparse reads it: None for a value, else the flag it names
    by a unique prefix ("" for none, or `--`) and its text after `=` or `-h`."""
    if token == "--":
        return "", None
    if token[:1] != "-" or token == "-":
        return None
    name, eq, text = token.partition("=")
    if token in flags or eq and name in flags:
        return name, text if eq else None
    long = token[1] == "-"
    matches = [f for f in flags if (f.startswith(name) if long else f == token[:2])]
    if len(matches) > 1:
        raise DomainError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], (text if eq else None) if long else token[2:]
    # A negative number is a value: argparse's `^-\d+$|^-\d*\.\d+$`, read
    # without compiling a pattern in every process.
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    negative = fraction.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return None if negative or " " in token else ("", None)


def _read_options(options: dict, tokens: list, values: dict, take_command: bool = False):
    """Put in `values` each option of `options` by name, from `tokens` or its
    default, and return the tokens after the command name (the first value)
    if `take_command`; None at -h/--help.  Errors come in argparse's order."""
    cut = tokens.index("--") + 1 if "--" in tokens else len(tokens)  # a token after `--` is a value
    kinds = [_classify((*_HELP, *options), t) for t in tokens[:cut]] + [None] * (len(tokens) - cut)
    given, extras, i = {}, [], 0
    while i < len(tokens):
        (token, kind), i = (tokens[i], kinds[i]), i + 1
        if kind is None and take_command:
            if token not in _COMMANDS:
                raise DomainError(f"argument command: invalid choice: {token!r} (choose from {', '.join(_COMMANDS)})")
            values["command"] = token
            break
        flag, text = kind or ("", None)
        if flag in _HELP:  # `-hh` is `-h -h`
            if text is None or flag == "-h" and text and not text.strip("h"):
                return None
            raise DomainError(f"argument -h/--help: ignored explicit argument {text!r}")
        if not flag:
            extras.append(token)
            continue
        if text is None:
            if i == len(tokens) or kinds[i] is not None:
                raise DomainError(f"argument {flag}: expected one argument")
            text, i = tokens[i], i + 1
        value = _parse_int(text, flag) if options[flag][0] is int else text
        if flag in given:
            raise DomainError(f"{flag} given twice")
        given[flag] = value
    missing = [f for f, (_, required, _) in options.items() if required and f not in given]
    if missing or take_command and "command" not in values:
        raise DomainError(f"the following arguments are required: {', '.join(missing or ['command'])}")
    if extras:
        raise DomainError(f"unrecognized arguments: {' '.join(extras)}")
    values.update((f[2:].replace("-", "_"), given.get(f, default)) for f, (_, _, default) in options.items())
    return tokens[i:]


def _parse_args(argv: Sequence[str]) -> SimpleNamespace | str:
    """The options of `argv` by name, and `command`; or the help text, if
    -h/--help comes first."""
    values = {}
    if (rest := _read_options(_GLOBAL_OPTIONS, list(argv), values, take_command=True)) is None:
        return _help()
    if _read_options(_COMMANDS[values["command"]][2], rest, values) is None:
        return _help(values["command"])
    return SimpleNamespace(**values)


def _help(command: str | None = None) -> str:
    """The global options and the commands, or one command's options."""
    about, _, options = _COMMANDS[command] if command else (__doc__, None, _GLOBAL_OPTIONS)
    lines = [f"usage: diagflag {command or '[--seed N] [--out FILE] COMMAND'} [--OPTION VALUE]...\n\n{about.strip()}\n",
             "options:\n  -h, --help"]
    for flag, (kind, required, default) in options.items():
        note = " (required)" if required else "" if default is None else f" (default {default})"
        lines.append(f"  {flag} {'N' if kind is int else 'VALUE'}{note}")
    if not command:
        lines += ["\ncommands (`diagflag COMMAND --help` lists its options):"]
        lines += [f"  {name:<17}{line}" for name, (line, _, _) in _COMMANDS.items()]
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):  # -h or --help
            sys.stdout.write(args)
            return 0
        payload = _COMMANDS[args.command][1](args)
        exit_code = 0
        if isinstance(payload, str):  # DOT output is emitted verbatim
            text = payload
        else:
            exit_code = payload.pop("_exit", 0)
            text = canonical_json({"schema_version": SCHEMA_VERSION, "selftest_digest": selftest_digest(),
                                   "command": args.command, "seed": args.seed, **payload})
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

    Once the report is written the heap is frozen, so the collections of
    interpreter shutdown scan none of it (about 13,500 objects, 2-3 ms a
    pass on a 2-vCPU VM).  That is safe: shutdown still runs atexit and
    flushes stdout, `--out` is closed by its `with` block, and no library
    object needs a cycle collected at exit.  `main` leaves the collector
    alone, so in-process callers keep a normal one."""
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
