"""Command-line interface.

Subcommands: check (convergence conditions and certificates), count
(certified approximate log Z), exact (brute-force oracle), sample
(independent-set draws as JSON-lines), decay (correlation/cumulant tables as
CSV), zeros (complex zero-free-region probe), gen (graph generation).

Exit status: 0 on success, 2 when a certification refusal blocks the
request, 1 on input errors.  With --json, check, count, exact and zeros
print JSON instead of text; decay, gen and sample keep their CSV, edge-list
and JSON-lines output.  Every command then emits its errors to standard
error as one JSON object {"error": {"type": ..., "message": ...}}.  JSON
output is strict: a number past the float range prints as null.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext
from typing import Sequence

from . import graph as graphmod
from . import oracle
from .clusters import SeriesEngine
from .conditions import certify_kp, check_corollary, check_main_condition
from .counting import approx_log_Z, zero_probe
from .cumulants import decay_experiment, decay_rows_to_csv
from .errors import BipcoreError, CertificationError
from .graph import BipartiteGraph, Vertex, _bits, degree_profile, load_graph
from .polymers import ComplexRegion, Fugacities
from .sampler import IndependentSetSampler


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit 1, not argparse's default 2
    (2 is reserved for certification refusals)."""

    def error(self, message: str):
        raise _UsageError(message)


def _finite(x):
    """``x`` with each non-finite float, in nested dicts too, replaced by None."""
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    return None if isinstance(x, float) and not math.isfinite(x) else x


def _dumps(doc) -> str:
    """The one JSON serialiser: sorted keys, and strict JSON, so a number
    past the float range reads null."""
    return json.dumps(_finite(doc), sort_keys=True, allow_nan=False)


def _emit_error(exc: BaseException, as_json: bool) -> None:
    obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(_dumps(obj) if as_json else f"error: {exc}", file=sys.stderr)


def _open_out(out: str | None):
    return nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")


def _write(args, text: str, doc: dict | None = None) -> None:
    """Write to --out or stdout the JSON document under --json, else the text."""
    with _open_out(args.out) as fh:
        fh.write(_dumps(doc) + "\n" if args.json and doc is not None else text)


def _load(path: str) -> BipartiteGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh.read())


def _fugacities(args) -> Fugacities:
    complex_parts = [
        getattr(args, "lambda_l_re", None),
        getattr(args, "lambda_l_im", None),
        getattr(args, "lambda_r_re", None),
        getattr(args, "lambda_r_im", None),
    ]
    if any(p is not None for p in complex_parts):
        if args.lambda_l is not None or args.lambda_r is not None:
            raise _UsageError("give either real or complex activity flags, not both")
        re_l, im_l, re_r, im_r = (p if p is not None else 0.0 for p in complex_parts)
        return Fugacities(complex(re_l, im_l), complex(re_r, im_r))
    if args.lambda_l is None or args.lambda_r is None:
        raise _UsageError("this command needs --lambda-l and --lambda-r")
    return Fugacities(args.lambda_l, args.lambda_r)


def _parse_vertex(token: str) -> Vertex:
    side, _, idx = token.partition(":")
    if side not in ("L", "R") or not idx:
        raise _UsageError(f"bad vertex {token!r}; expected L:<i> or R:<i>")
    try:
        return (side, int(idx))
    except ValueError:
        raise _UsageError(f"bad vertex index in {token!r}") from None


def _parse_vertex_list(tokens: str) -> list[Vertex]:
    return [_parse_vertex(t.strip()) for t in tokens.split(",") if t.strip()]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(args) -> int:
    g = _load(args.graph)
    lam = _fugacities(args)
    profile = degree_profile(g)
    cond = check_main_condition(profile, lam)
    cert = certify_kp(g, lam, eta=args.eta)
    doc = {
        "n_L": g.n_L,
        "n_R": g.n_R,
        "main_condition": {
            "satisfied": cond.satisfied,
            "lhs": cond.lhs,
            "rhs": cond.rhs,
            "ratio": cond.ratio,
            "boundary": cond.boundary,
        },
        "kp_certificate": {
            "mode": cert.mode,
            "eta": cert.eta,
            "margin": cert.margin,
            "valid": cert.valid,
            "per_vertex_margins": cert.margin,  # kept key: the same worst-case ratio
        },
    }
    if args.corollary is not None:
        doc["corollary"] = {
            "part": args.corollary,
            "satisfied": check_corollary(profile, lam, args.corollary),
        }
    lines = [
        f"graph: n_L={g.n_L} n_R={g.n_R}",
        "main condition: "
        f"{'satisfied' if cond.satisfied else 'violated'} "
        f"(lhs={_fmt(cond.lhs)}, rhs={_fmt(cond.rhs)}, ratio={_fmt(cond.ratio)})",
        f"certificate: {cert.mode}, eta={_fmt(cert.eta)}, "
        f"valid={'yes' if cert.valid else 'no'}",
    ]
    if args.corollary is not None:
        ok = doc["corollary"]["satisfied"]
        lines.append(f"corollary part {args.corollary}: {'satisfied' if ok else 'violated'}")
    _write(args, "\n".join(lines) + "\n", doc)
    return 0


def cmd_count(args) -> int:
    g = _load(args.graph)
    lam = _fugacities(args)
    try:
        res = approx_log_Z(g, lam, epsilon=args.eps, eta=args.eta, m=args.m)
    except CertificationError as exc:
        raise CertificationError(f"{exc}; try `exact`") from None
    if args.dump_clusters:
        engine = SeriesEngine(g, lam, res.m_used)
        for T, value in engine.set_contributions().items():
            print(f"set={','.join(map(str, _bits(T)))} value={value!r}", file=sys.stderr)
    if res.degraded:
        print(
            f"warning: cluster budget forced truncation depth down to m={res.m_used}; "
            "the requested accuracy is not certified",
            file=sys.stderr,
        )
    bound = "unbounded" if res.error_bound is None else _fmt(res.error_bound)
    text = (
        f"log Z estimate = {_fmt(res.log_Z_estimate)} "
        f"(error bound {bound}, m={res.m_used}, certificate {res.certificate.mode})\n"
    )
    _write(args, text, res.to_json_dict())
    return 0


def cmd_exact(args) -> int:
    g = _load(args.graph)
    lam = _fugacities(args)
    marg_tokens = args.marginal or []
    if lam.is_real:
        log_Z = oracle.exact_log_Z(g, lam)
        try:
            Z = math.exp(log_Z)  # exact_Z's rule, without a second oracle pass
        except OverflowError:
            Z = None
        doc: dict = {"n_L": g.n_L, "n_R": g.n_R, "log_Z": log_Z, "Z": Z}
        if marg_tokens:
            doc["marginals"] = {
                tok: oracle.exact_marginal(g, lam, _parse_vertex(tok))
                for tok in marg_tokens
            }
        lines = [f"Z = {_fmt(Z)}" if Z is not None else f"log Z = {_fmt(log_Z)}"]
        for tok in marg_tokens:
            lines.append(f"Pr[{tok} occupied] = {_fmt(doc['marginals'][tok])}")
        text = "\n".join(lines) + "\n"
    else:
        if marg_tokens:
            raise _UsageError("marginals need real activities")
        Zc = oracle.exact_Z_complex(g, lam)
        doc = {"n_L": g.n_L, "n_R": g.n_R, "Z_re": Zc.real, "Z_im": Zc.imag, "abs_Z": abs(Zc)}
        text = f"Z = {Zc.real!r} + {Zc.imag!r}i (|Z| = {abs(Zc)!r})\n"
    _write(args, text, doc)
    return 0


def cmd_sample(args) -> int:
    if args.draws < 1:
        raise _UsageError("need at least one draw")
    g = _load(args.graph)
    lam = _fugacities(args)
    sampler = IndependentSetSampler(g, lam, epsilon=args.eps, backend=args.backend, eta=args.eta)
    if sampler.degraded:
        print(
            f"warning: truncation depth capped at m={sampler.m_step} "
            f"(requested m={sampler.m_requested}); the requested accuracy is not certified",
            file=sys.stderr,
        )
    draws = sampler.draws(args.draws, args.seed)  # checks the seed before --out is opened
    size_total = 0
    r_total = 0
    with _open_out(args.out) as fh:  # line by line, so memory does not grow with --draws
        for s in draws:
            ordered = sorted(s)
            size_total += len(ordered)
            r_total += sum(1 for side, _ in ordered if side == "R")
            fh.write(json.dumps([[side, i] for side, i in ordered]) + "\n")
        summary = {
            "backend": sampler.backend,
            "draws": args.draws,
            "epsilon": args.eps,
            "mean_R_occupied": r_total / args.draws,
            "mean_size": size_total / args.draws,
            "seed": args.seed,
        }
        fh.write(_dumps(summary) + "\n")
    return 0


def cmd_decay(args) -> int:
    g = _load(args.graph)
    lam = _fugacities(args)
    queries: list[tuple] = []
    for spec_str in args.pair or []:
        vs = _parse_vertex_list(spec_str)
        if len(vs) != 2:
            raise _UsageError(f"--pair takes exactly two vertices, got {spec_str!r}")
        queries.append(("pair", vs[0], vs[1]))
    for spec_str in args.cumulant or []:
        vs = _parse_vertex_list(spec_str)
        if not vs:
            raise _UsageError("--cumulant needs at least one vertex")
        queries.append(("cumulant", tuple(vs)))
    for spec_str in args.set_pair or []:
        left, sep, right = spec_str.partition("|")
        if not sep:
            raise _UsageError(
                f"--set-pair takes two sets separated by '|', got {spec_str!r}"
            )
        A = _parse_vertex_list(left)
        B = _parse_vertex_list(right)
        if not A or not B:
            raise _UsageError("--set-pair sets must be nonempty")
        queries.append(("set_pair", tuple(A), tuple(B)))
    if not queries:
        raise _UsageError("give at least one --pair/--cumulant/--set-pair query")
    rows = decay_experiment(g, lam, queries, m=args.m, eta=args.eta)
    _write(args, decay_rows_to_csv(rows))
    return 0


def cmd_zeros(args) -> int:
    g = _load(args.graph)
    region = ComplexRegion(args.bound_l, args.bound_r)
    report = zero_probe(g, region, samples=args.samples, seed=args.seed)
    aL, aR = report.argmin
    text = (
        f"scanned {report.samples} points: min |Z| = {report.min_abs_Z!r} at "
        f"lambda_L = {aL!r}, lambda_R = {aR!r}; zeros found = {report.zeros_found}\n"
    )
    _write(args, text, report.to_json_dict())
    return 0


def cmd_gen(args) -> int:
    g = graphmod.generate(
        args.family,
        a=args.a,
        b=args.b,
        k=args.k,
        n=args.n,
        d_L=args.d_l,
        d_R=args.d_r,
        n_L=args.n_l,
        seed=args.seed if args.family == "random_biregular" else args.seed or None,
    )
    _write(args, graphmod.graph_to_text(g))
    return 0


# ---------------------------------------------------------------------------
# parser construction

def _add_activity_flags(p: _Parser) -> None:
    p.add_argument("--lambda-l", type=float, default=None, help="left activity (real)")
    p.add_argument("--lambda-r", type=float, default=None, help="right activity (real)")


def _add_common(p: _Parser, graph_arg: bool = True) -> None:
    if graph_arg:
        p.add_argument("graph", help="graph file (header 'n_L n_R', one edge per line)")
    p.add_argument("--json", action="store_true",
                   help="emit JSON instead of text; decay, gen and sample: errors only")
    p.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> _Parser:
    parser = _Parser(prog="bipcore", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("check", help="condition checks and convergence certificate")
    _add_common(p)
    _add_activity_flags(p)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--corollary", type=int, choices=(1, 2, 3), default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("count", help="certified approximation of log Z")
    _add_common(p)
    _add_activity_flags(p)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--m", type=int, default=None, help="override truncation depth")
    p.add_argument("--dump-clusters", action="store_true",
                   help="print the summed clusters of each 2-linked set to standard error")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("exact", help="brute-force partition function / marginals")
    _add_common(p)
    _add_activity_flags(p)
    # only exact evaluates complex activities; every other command rejects them
    for flag in ("--lambda-l-re", "--lambda-l-im", "--lambda-r-re", "--lambda-r-im"):
        p.add_argument(flag, type=float, default=None)
    p.add_argument("--marginal", action="append", default=None, metavar="SIDE:I",
                   help="occupation probability of a vertex (repeatable)")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("sample", help="draw independent sets (JSON-lines)")
    _add_common(p)
    _add_activity_flags(p)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--draws", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("auto", "exact", "truncated"), default="auto")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("decay", help="correlation/cumulant decay table (CSV)")
    _add_common(p)
    _add_activity_flags(p)
    p.add_argument("--pair", action="append", metavar="U,V",
                   help="vertex pair, e.g. R:0,R:2 (repeatable)")
    p.add_argument("--cumulant", action="append", metavar="A",
                   help="R-vertex set, e.g. R:0,R:1 (repeatable)")
    p.add_argument("--set-pair", action="append", metavar="A|B",
                   help="two vertex sets, e.g. R:0,R:1|R:4 (repeatable)")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--eta", type=float, default=0.1)
    p.set_defaults(func=cmd_decay)

    p = sub.add_parser("zeros", help="probe |Z| over a complex zero-free region")
    _add_common(p)
    p.add_argument("--bound-l", type=float, required=True,
                   help="region size for the left activity")
    p.add_argument("--bound-r", type=float, required=True,
                   help="magnitude bound for the right activity")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("gen", help="generate a named graph family")
    _add_common(p, graph_arg=False)
    p.add_argument("--family", required=True, choices=sorted(graphmod._FAMILIES))
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d-l", type=int, default=None)
    p.add_argument("--d-r", type=int, default=None)
    p.add_argument("--n-l", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    as_json = "--json" in (argv if argv is not None else sys.argv[1:])
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _emit_error(exc, as_json)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        _emit_error(_UsageError("no command given; see --help"), as_json)
        return 1
    try:
        return args.func(args)
    except CertificationError as exc:
        _emit_error(exc, args.json)
        return 2
    except (_UsageError, BipcoreError, OSError, ValueError) as exc:
        _emit_error(exc, args.json)
        return 1


if __name__ == "__main__":
    sys.exit(main())
