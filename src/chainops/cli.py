"""Command-line entry point: homology tables, axiom verification, basis
enumeration, cochain-identity runs, Hochschild reports, little-cubes tools,
and JSON export of complexes.

Every run prints a human-readable table and (with --json) a machine-readable
report; reports are byte-identical across repeated runs with the same
arguments and seed.  Exit status 0 means every requested check passed;
bad input exits with status 2 and a message.
"""

import argparse
import json
import sys
from dataclasses import dataclass


class ConfigError(Exception):
    pass


@dataclass
class Report:
    command: str
    config: dict
    results: dict
    passed: bool

    def to_json(self):
        return json.dumps({
            "command": self.command, "config": self.config,
            "results": self.results, "passed": self.passed,
        }, sort_keys=True)


def _echo_config(args, **values):
    """The report's config entry: the given values and the seed (0 for
    commands without --seed), leaving out the unset ones."""
    out = {"seed": getattr(args, "seed", 0), **values}
    return {k: v for k, v in out.items() if v is not None}


# the least accepted value of each integer option that has one
_LEAST = {"n": 1, "k": 1, "kmax": 1, "qmax": 1, "max_complexity": 1,
          "q": 0, "r": 0, "max_dim": 0, "pmax": 0, "resolution": 2,
          "exhaustive_cap": 0, "samples": 0}
_SAY = {0: "non-negative", 1: "positive", 2: "at least 2"}


def _validate(args):
    """Check the integer options as typed, before any handler runs."""
    for name, least in _LEAST.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            raise ConfigError("--%s must be %s" %
                              (name.replace("_", "-"), _SAY[least]))
    if getattr(args, "family", None) == "Tn" and args.n is None:
        raise ConfigError("--n must be a positive integer for family Tn")
    if getattr(args, "family", None) == "T" and args.n is not None:
        raise ConfigError("--n applies only to --family Tn")


def _parse_degrees(text):
    try:
        if ".." in text:
            a, b = text.split("..")
            degrees = tuple(range(int(a), int(b) + 1))
        else:
            degrees = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError("bad degree window %r" % text)
    if not degrees:
        raise ConfigError("empty degree window %r" % text)
    return degrees


def _complexity_bound(args):
    return None if args.family == "T" else args.n


def _read(path, what):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError("cannot read %s file %r: %s" %
                          (what, path, exc.strerror))


def _no_symbols(exc):
    k, q_cap = exc.args[0]
    return ConfigError("--qmax %d leaves arity %d without symbols "
                       "(q >= k - 1 is needed)" % (q_cap, k))


def _check_lines(rows, name_width, count_width):
    """One line per check: name, instance count, ok or the failure count."""
    return ["  %-*s %*d instances  %s" %
            (name_width, name, count_width, instances,
             "ok" if not bad else "%d FAILURES" % bad)
            for name, instances, bad in rows]


def _check_rows(report):
    return [(name, it.instances, len(it.failures))
            for name, it in sorted(report.items.items())]


# -- subcommands ----------------------------------------------------------------

def cmd_homology_operad(args):
    from .operads import InfeasibleSize, NotStabilized, operad_homology
    degrees = _parse_degrees(args.degrees)
    level_cap = max(1, args.qmax - args.k + 1)
    try:
        rep = operad_homology(args.k, _complexity_bound(args), degrees,
                              level_cap)
        ok = True
    except NotStabilized as exc:
        rep = exc.args[0]
        ok = False
    except InfeasibleSize as exc:
        raise ConfigError("--k %d --qmax %d is too large: %s"
                          % (args.k, args.qmax, exc))
    lines = ["homology of %s(%d), level cap %d (stabilized: %s)" %
             (rep.family, args.k, rep.level_cap, rep.stabilized)]
    for d in degrees:
        betti, tors = rep.groups[d]
        lines.append("  degree %2d: rank %d%s" %
                     (d, betti, "  torsion %s" % (tors,) if tors else ""))
    config = _echo_config(args, family=args.family, n=args.n, k=args.k,
                          qmax=args.qmax)
    return Report("homology-operad", config, rep.to_dict(),
                  ok and rep.stabilized), lines


def cmd_verify_operad(args):
    from .boxprod import BoundsExceeded
    from .operads import (InfeasibleSize, TruncatedChainOperad,
                          verify_operad_axioms)
    try:
        op = TruncatedChainOperad(_complexity_bound(args), args.kmax,
                                  args.qmax)
    except BoundsExceeded as exc:
        raise _no_symbols(exc)
    try:
        rep = verify_operad_axioms(op, seed=args.seed,
                                   exhaustive_cap=args.exhaustive_cap,
                                   samples=args.samples)
    except InfeasibleSize as exc:
        raise ConfigError("--kmax %d --qmax %d is too large: %s"
                          % (args.kmax, args.qmax, exc))
    lines = ["operad axioms for %s, arities <= %d, q <= %d (seed %d)" %
             (op.family, args.kmax, args.qmax, args.seed)]
    lines += _check_lines(_check_rows(rep), 44, 6)
    config = _echo_config(args, family=args.family, n=args.n,
                          k_max=args.kmax, qmax=args.qmax,
                          exhaustive_cap=args.exhaustive_cap,
                          samples=args.samples)
    return Report("verify-operad", config, rep.to_dict(), rep.passed), lines


def cmd_enumerate_basis(args):
    from .boxprod import count_symbols, enumerate_symbols
    from .operads import MAX_WINDOW_SYMBOLS
    n = args.max_complexity
    # exact without a complexity bound; with one, only an upper bound
    size = count_symbols(args.k, args.q, args.r) if n is None else 0
    if size > MAX_WINDOW_SYMBOLS:
        raise ConfigError("--k %d --q %d --r %d is too large: %d symbols, "
                          "above the limit %d" % (args.k, args.q, args.r,
                                                  size, MAX_WINDOW_SYMBOLS))
    syms = enumerate_symbols(args.k, args.q, args.r, n)
    lines = ["symbols with k=%d q=%d r=%d%s: %d" %
             (args.k, args.q, args.r,
              "" if n is None else " complexity<=%d" % n, len(syms))]
    shown = [{"k": s.k, "f": list(s.f), "phi": list(s.phi)} for s in syms]
    for s in shown:
        lines.append("  f=%s phi=%s" % ("".join(map(str, s["f"])),
                                        "".join(map(str, s["phi"]))))
    results = {"count": len(syms), "symbols": shown}
    config = _echo_config(args, k=args.k, n=n, q=args.q, r=args.r)
    return Report("enumerate-basis", config, results, True), lines


def _load_simplicial(spec):
    from . import simplicial
    if spec == "circle":
        return simplicial.simplicial_circle(), "circle"
    if spec.startswith("simplex:"):
        try:
            dim = int(spec.split(":", 1)[1])
        except ValueError:
            dim = -1
        if dim < 0:
            raise ConfigError("simplex:N needs a non-negative integer N, "
                              "got %r" % spec)
        return simplicial.standard_simplex_sset(dim), spec
    text = _read(spec, "simplicial set")
    try:
        return simplicial.FiniteSimplicialSet.from_json(text), spec
    except (AssertionError, AttributeError, KeyError, TypeError,
            ValueError) as exc:
        raise ConfigError("invalid simplicial set file %r: %r" % (spec, exc))


def cmd_verify_cochain_ops(args):
    from .cochain_ops import verify_identities
    W, name = _load_simplicial(args.complex)
    rep = verify_identities(W, level_cap=args.max_dim, name=name)
    lines = ["cochain identities on %s (levels <= %d)" %
             (name, rep.header["level_cap"])]
    lines += _check_lines(_check_rows(rep), 46, 6)
    config = _echo_config(args, max_dim=args.max_dim, complex=name)
    return Report("verify-cochain-ops", config, rep.to_dict(),
                  rep.passed), lines


def _load_algebra(spec):
    from . import hochschild
    builtin = {"Z": hochschild.integers,
               "dual2": hochschild.dual_numbers_mod2,
               "ut2": hochschild.upper_triangular_mod2,
               "m2": hochschild.matrix2_mod2}
    if spec in builtin:
        return builtin[spec]()
    text = _read(spec, "algebra")
    try:
        return hochschild.FiniteRankAlgebra.from_json(text)
    except (hochschild.InvalidAlgebra, ValueError, TypeError) as exc:
        raise ConfigError("invalid algebra file %r: %s" % (spec, exc))


def cmd_hochschild(args):
    from .hochschild import (InfeasibleSize, gerstenhaber_report,
                             hochschild_cohomology)
    R = _load_algebra(args.algebra)
    try:
        groups = hochschild_cohomology(R, args.pmax)
    except InfeasibleSize as exc:
        raise ConfigError("--pmax %d is too large: %s" % (args.pmax, exc))
    lines = ["Hochschild cohomology of %s through degree %d" %
             (R.name, args.pmax)]
    for p in range(args.pmax + 1):
        betti, tors = groups[p]
        unit = "rank" if not R.prime else "dim"
        lines.append("  H^%d: %s %d%s" %
                     (p, unit, betti, "  torsion %s" % (tors,) if tors else ""))
    results = {"cohomology": {str(p): [b, list(t)] for p, (b, t) in groups.items()}}
    passed = True
    if args.report == "gerstenhaber":
        rep = gerstenhaber_report(R, args.pmax)
        passed = rep.passed
        results["gerstenhaber"] = rep.to_dict()
        lines += _check_lines([(name, inst, bad) for name, (inst, bad)
                               in sorted(rep.items.items())], 46, 5)
        lines.append("  certificates: %d" % len(rep.certificates))
    config = _echo_config(args, p_max=args.pmax, algebra=R.name)
    return Report("hochschild", config, results, passed), lines


def _compose_cubes(path):
    from . import cubes
    text = _read(path, "compose")
    try:
        obj = json.loads(text)
        n = obj["n"]

        def element(spec):
            return cubes.CubesElement(n, tuple(
                cubes.TDMap(n, td["a"], td["b"]) for td in spec))

        return cubes.gamma_cubes(element(obj["outer"]),
                                 [element(spec) for spec in obj["inner"]])
    except (AssertionError, cubes.DisjointnessViolation, AttributeError,
            KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError("invalid compose file %r: %r" % (path, exc))


def cmd_cubes(args):
    from . import cubes
    if args.compose:
        shown = [{"a": [str(x) for x in td.a], "b": str(td.b)}
                 for td in _compose_cubes(args.compose).cubes]
        lines = ["composite of %d cubes:" % len(shown)]
        lines += ["  a=(%s) b=%s" % (", ".join(td["a"]), td["b"])
                  for td in shown]
        results = {"cubes": shown}
        return Report("cubes", _echo_config(args), results, True), lines
    n = args.n or 1
    try:
        comps = cubes.count_components(n, args.k, args.resolution)
    except cubes.ResolutionTooCoarse:
        raise ConfigError("--resolution %d is too coarse: the count changes "
                          "at %d" % (args.resolution, args.resolution + 1))
    except cubes.SampleTooLarge as exc:
        raise ConfigError("too many samples to count: %s" % exc)
    lines = ["sampled components of the %d-cubes arity %d space: %d" %
             (n, args.k, comps)]
    config = _echo_config(args, n=args.n, k=args.k,
                          resolution=args.resolution)
    return Report("cubes", config, {"components": comps}, True), lines


def cmd_export_complex(args):
    from .boxprod import BoundsExceeded
    from .operads import InfeasibleSize, family_name, symbol_complex
    n = _complexity_bound(args)
    try:
        cx = symbol_complex(args.k, n, args.qmax)
    except BoundsExceeded as exc:
        raise _no_symbols(exc)
    except InfeasibleSize as exc:
        raise ConfigError("--k %d --qmax %d is too large: %s"
                          % (args.k, args.qmax, exc))
    text = cx.to_json()
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("cannot write --out file %r: %s" %
                              (args.out, exc.strerror))
        lines = ["wrote %s(%d) with q <= %d to %s" %
                 (family_name(n), args.k, args.qmax, args.out)]
    else:
        lines = [text]
    ranks = {str(d): cx.rank(d) for d in cx.degrees() if cx.rank(d)}
    config = _echo_config(args, family=args.family, n=args.n, k=args.k,
                          qmax=args.qmax)
    return Report("export-complex", config, {"ranks": ranks}, True), lines


# -- argument parsing ------------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(prog="chainops", description=__doc__)
    top.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, handler, family=False):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        if family:
            p.add_argument("--family", choices=("T", "Tn"), default="T")
            p.add_argument("--n", type=int)
        return p

    p = command("homology-operad", cmd_homology_operad, family=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--qmax", type=int, default=4)
    p.add_argument("--degrees", default="0..2")

    p = command("verify-operad", cmd_verify_operad, family=True)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--qmax", type=int, default=4)
    p.add_argument("--exhaustive-cap", type=int, default=40)
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)

    p = command("enumerate-basis", cmd_enumerate_basis)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-complexity", type=int)

    p = command("verify-cochain-ops", cmd_verify_cochain_ops)
    p.add_argument("--complex", required=True,
                   help="JSON file, or circle, or simplex:N")
    p.add_argument("--max-dim", type=int)

    p = command("hochschild", cmd_hochschild)
    p.add_argument("--algebra", required=True,
                   help="JSON file, or one of Z, dual2, ut2, m2")
    p.add_argument("--pmax", type=int, default=3)
    p.add_argument("--report", choices=("gerstenhaber",))

    p = command("cubes", cmd_cubes)
    p.add_argument("--compose")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--resolution", type=int, default=4)

    p = command("export-complex", cmd_export_complex, family=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--qmax", type=int, default=4)
    p.add_argument("--out")
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        report, lines = args.handler(args)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if args.json:
        print(report.to_json())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
