"""Command-line entry point: homology tables, axiom verification, basis
enumeration, cochain-identity runs, Hochschild reports, little-cubes tools,
and JSON export of complexes.

Every run prints a human-readable table and (with --json) a machine-readable
report; reports are byte-identical across repeated runs with the same
configuration and seed.  Exit status 0 means every requested check passed.
The CHAINOPS_THREADS variable caps worker counts for deployments that shard
the verification loops; this reference implementation executes serially, so
the cap only lands in the report echo.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    family: str = "T"
    n: int = None
    k: int = 2
    k_max: int = 2
    qmax: int = 4
    degrees: tuple = (0, 1, 2)
    seed: int = 0
    exhaustive_cap: int = 40
    samples: int = 30
    resolution: int = 4
    p_max: int = 3
    max_dim: int = None
    threads: int = 1
    paths: dict = field(default_factory=dict)
    emit_json: bool = False

    def validate(self):
        if self.family not in ("T", "Tn"):
            raise ConfigError("family must be T or Tn")
        if self.family == "Tn" and (self.n is None or self.n < 1):
            raise ConfigError("--n must be a positive integer for family Tn")
        if self.n is not None and self.n < 1:
            raise ConfigError("--n must be a positive integer")
        for name, value in (("k", self.k), ("kmax", self.k_max),
                            ("qmax", self.qmax)):
            if value is not None and value < 1:
                raise ConfigError("--%s must be positive" % name)
        if self.resolution < 2:
            raise ConfigError("--resolution must be at least 2")
        if self.p_max < 0:
            raise ConfigError("--pmax must be non-negative")
        return self

    @property
    def complexity_bound(self):
        return None if self.family == "T" else self.n


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


def _echo_config(cfg, keys):
    out = {"threads": cfg.threads, "seed": cfg.seed}
    for key in keys:
        out[key] = getattr(cfg, key)
    return {k: v for k, v in sorted(out.items()) if v is not None}


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


def _family_tag(cfg):
    return "T" if cfg.family == "T" else "T%d" % cfg.n


# -- subcommands ----------------------------------------------------------------

def cmd_homology_operad(cfg):
    from .operads import operad_homology, NotStabilized
    level_cap = max(1, cfg.qmax - cfg.k + 1)
    try:
        rep = operad_homology(cfg.k, cfg.complexity_bound, cfg.degrees,
                              level_cap)
        ok = True
    except NotStabilized as exc:
        rep = exc.args[0]
        ok = False
    lines = ["homology of %s(%d), level cap %d (stabilized: %s)" %
             (_family_tag(cfg), cfg.k, rep.level_cap, rep.stabilized)]
    for d in cfg.degrees:
        betti, tors = rep.groups[d]
        lines.append("  degree %2d: rank %d%s" %
                     (d, betti, "  torsion %s" % (tors,) if tors else ""))
    results = rep.to_dict()
    return Report("homology-operad",
                  _echo_config(cfg, ("family", "n", "k", "qmax")),
                  results, ok and rep.stabilized), lines


def cmd_verify_operad(cfg):
    from .operads import TruncatedChainOperad, verify_operad_axioms
    op = TruncatedChainOperad(cfg.complexity_bound, cfg.k_max, cfg.qmax)
    rep = verify_operad_axioms(op, seed=cfg.seed,
                               exhaustive_cap=cfg.exhaustive_cap,
                               samples=cfg.samples)
    lines = ["operad axioms for %s, arities <= %d, q <= %d (seed %d)" %
             (_family_tag(cfg), cfg.k_max, cfg.qmax, cfg.seed)]
    for name, it in sorted(rep.items.items()):
        lines.append("  %-44s %6d instances  %s" %
                     (name, it.instances,
                      "ok" if not it.failures else "%d FAILURES" % len(it.failures)))
    return Report("verify-operad",
                  _echo_config(cfg, ("family", "n", "k_max", "qmax",
                                     "exhaustive_cap", "samples")),
                  rep.to_dict(), rep.passed), lines


def cmd_enumerate_basis(cfg):
    from .boxprod import enumerate_symbols
    n = cfg.n if cfg.n is not None else None
    syms = enumerate_symbols(cfg.k, cfg.paths["q"], cfg.paths["r"], n)
    lines = ["symbols with k=%d q=%d r=%d%s: %d" %
             (cfg.k, cfg.paths["q"], cfg.paths["r"],
              "" if n is None else " complexity<=%d" % n, len(syms))]
    shown = [{"k": s.k, "f": list(s.f), "phi": list(s.phi)} for s in syms]
    for s in shown:
        lines.append("  f=%s phi=%s" % ("".join(map(str, s["f"])),
                                        "".join(map(str, s["phi"]))))
    results = {"count": len(syms), "symbols": shown}
    return Report("enumerate-basis",
                  _echo_config(cfg, ("k", "n")) | {"q": cfg.paths["q"],
                                                   "r": cfg.paths["r"]},
                  results, True), lines


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
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read simplicial set file %r: %s" %
                          (spec, exc.strerror))
    try:
        return simplicial.FiniteSimplicialSet.from_json(text), spec
    except (AssertionError, AttributeError, KeyError, TypeError,
            ValueError) as exc:
        raise ConfigError("invalid simplicial set file %r: %r" % (spec, exc))


def cmd_verify_cochain_ops(cfg):
    from .cochain_ops import verify_identities
    W, name = _load_simplicial(cfg.paths["complex"])
    rep = verify_identities(W, level_cap=cfg.max_dim, name=name)
    lines = ["cochain identities on %s (levels <= %d)" %
             (name, rep.level_cap)]
    for iname, it in sorted(rep.items.items()):
        lines.append("  %-46s %6d instances  %s" %
                     (iname, it.instances,
                      "ok" if not it.failures else "%d FAILURES" % len(it.failures)))
    return Report("verify-cochain-ops",
                  _echo_config(cfg, ("max_dim",)) | {"complex": name},
                  rep.to_dict(), rep.passed), lines


def _load_algebra(spec):
    from . import hochschild
    builtin = {"Z": hochschild.integers,
               "dual2": hochschild.dual_numbers_mod2,
               "ut2": hochschild.upper_triangular_mod2,
               "m2": hochschild.matrix2_mod2}
    if spec in builtin:
        return builtin[spec]()
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read algebra file %r: %s" %
                          (spec, exc.strerror))
    try:
        return hochschild.FiniteRankAlgebra.from_json(text)
    except (hochschild.InvalidAlgebra, ValueError, TypeError) as exc:
        raise ConfigError("invalid algebra file %r: %s" % (spec, exc))


def cmd_hochschild(cfg):
    from .hochschild import (InfeasibleSize, gerstenhaber_report,
                             hochschild_cohomology)
    R = _load_algebra(cfg.paths["algebra"])
    try:
        groups = hochschild_cohomology(R, cfg.p_max)
    except InfeasibleSize as exc:
        raise ConfigError("--pmax %d is too large: %s" % (cfg.p_max, exc))
    lines = ["Hochschild cohomology of %s through degree %d" % (R.name, cfg.p_max)]
    for p in range(cfg.p_max + 1):
        betti, tors = groups[p]
        unit = "rank" if not R.prime else "dim"
        lines.append("  H^%d: %s %d%s" %
                     (p, unit, betti, "  torsion %s" % (tors,) if tors else ""))
    results = {"cohomology": {str(p): [b, list(t)] for p, (b, t) in groups.items()}}
    passed = True
    if cfg.paths.get("report") == "gerstenhaber":
        rep = gerstenhaber_report(R, cfg.p_max)
        passed = rep.passed
        results["gerstenhaber"] = rep.to_dict()
        for iname, (inst, bad) in sorted(rep.items.items()):
            lines.append("  %-46s %5d instances  %s" %
                         (iname, inst, "ok" if not bad else "%d FAILURES" % bad))
        lines.append("  certificates: %d" % len(rep.certificates))
    return Report("hochschild",
                  _echo_config(cfg, ("p_max",)) | {"algebra": R.name},
                  results, passed), lines


def _parse_frac(x):
    return Fraction(x) if isinstance(x, str) else Fraction(x)


def cmd_cubes(cfg):
    from . import cubes
    if cfg.paths.get("compose"):
        with open(cfg.paths["compose"]) as fh:
            obj = json.load(fh)
        n = obj["n"]

        def element(spec):
            tds = tuple(cubes.TDMap(n, tuple(_parse_frac(a) for a in td["a"]),
                                    _parse_frac(td["b"])) for td in spec)
            return cubes.CubesElement(n, tds)

        c = element(obj["outer"])
        ds = [element(spec) for spec in obj["inner"]]
        out = cubes.gamma_cubes(c, ds)
        lines = ["composite of %d cubes:" % out.k]
        results = {"cubes": []}
        for td in out.cubes:
            results["cubes"].append({"a": [str(x) for x in td.a], "b": str(td.b)})
            lines.append("  a=(%s) b=%s" % (", ".join(str(x) for x in td.a), td.b))
        return Report("cubes", _echo_config(cfg, ()), results, True), lines
    comps = cubes.count_components(cfg.n or 1, cfg.k, cfg.resolution)
    lines = ["sampled components of the %d-cubes arity %d space: %d" %
             (cfg.n or 1, cfg.k, comps)]
    return Report("cubes",
                  _echo_config(cfg, ("n", "k", "resolution")),
                  {"components": comps}, True), lines


def cmd_export_complex(cfg):
    from .operads import symbol_complex
    cx = symbol_complex(cfg.k, cfg.complexity_bound, cfg.qmax)
    text = cx.to_json()
    out = cfg.paths.get("out")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        lines = ["wrote %s(%d) with q <= %d to %s" %
                 (_family_tag(cfg), cfg.k, cfg.qmax, out)]
    else:
        lines = [text]
    ranks = {str(d): cx.rank(d) for d in cx.degrees() if cx.rank(d)}
    return Report("export-complex",
                  _echo_config(cfg, ("family", "n", "k", "qmax")),
                  {"ranks": ranks}, True), lines


# -- dispatch --------------------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(prog="chainops", description=__doc__)
    top.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, family=False):
        p.add_argument("--threads", type=int,
                       default=int(os.environ.get("CHAINOPS_THREADS", "1")))
        if family:
            p.add_argument("--family", choices=("T", "Tn"), default="T")
            p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("homology-operad")
    common(p, family=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--qmax", type=int, default=4)
    p.add_argument("--degrees", default="0..2")

    p = sub.add_parser("verify-operad")
    common(p, family=True)
    p.add_argument("--kmax", type=int, default=2)
    p.add_argument("--qmax", type=int, default=4)
    p.add_argument("--exhaustive-cap", type=int, default=40)
    p.add_argument("--samples", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("enumerate-basis")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-complexity", type=int, default=None)

    p = sub.add_parser("verify-cochain-ops")
    common(p)
    p.add_argument("--complex", required=True,
                   help="JSON file, or circle, or simplex:N")
    p.add_argument("--max-dim", type=int, default=None)

    p = sub.add_parser("hochschild")
    common(p)
    p.add_argument("--algebra", required=True,
                   help="JSON file, or one of Z, dual2, ut2, m2")
    p.add_argument("--pmax", type=int, default=3)
    p.add_argument("--report", choices=("gerstenhaber",), default=None)

    p = sub.add_parser("cubes")
    common(p)
    p.add_argument("--compose", default=None)
    p.add_argument("--components", action="store_true")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--resolution", type=int, default=4)

    p = sub.add_parser("export-complex")
    common(p, family=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--qmax", type=int, default=4)
    p.add_argument("--out", default=None)
    return top


def config_from_args(args):
    cfg = RunConfig(command=args.command, emit_json=args.json,
                    threads=getattr(args, "threads", 1))
    cfg.family = getattr(args, "family", "T")
    cfg.n = getattr(args, "n", None)
    cfg.k = getattr(args, "k", None) or 2
    cfg.k_max = getattr(args, "kmax", 2)
    cfg.qmax = getattr(args, "qmax", 4)
    if hasattr(args, "degrees"):
        cfg.degrees = _parse_degrees(args.degrees)
    cfg.seed = getattr(args, "seed", 0)
    cfg.exhaustive_cap = getattr(args, "exhaustive_cap", 40)
    cfg.samples = getattr(args, "samples", 30)
    cfg.resolution = getattr(args, "resolution", 4)
    cfg.p_max = getattr(args, "pmax", 3)
    cfg.max_dim = getattr(args, "max_dim", None)
    if args.command == "enumerate-basis":
        if args.max_complexity is not None and args.max_complexity < 1:
            raise ConfigError("--max-complexity must be a positive integer")
        cfg.n = args.max_complexity
        cfg.family = "T" if args.max_complexity is None else "Tn"
        cfg.paths["q"] = args.q
        cfg.paths["r"] = args.r
    if args.command == "verify-cochain-ops":
        cfg.paths["complex"] = args.complex
    if args.command == "hochschild":
        cfg.paths["algebra"] = args.algebra
        cfg.paths["report"] = args.report
    if args.command == "cubes":
        cfg.paths["compose"] = args.compose
        cfg.n = args.n
    if args.command == "export-complex":
        cfg.paths["out"] = args.out
    return cfg.validate()


HANDLERS = {
    "homology-operad": cmd_homology_operad,
    "verify-operad": cmd_verify_operad,
    "enumerate-basis": cmd_enumerate_basis,
    "verify-cochain-ops": cmd_verify_cochain_ops,
    "hochschild": cmd_hochschild,
    "cubes": cmd_cubes,
    "export-complex": cmd_export_complex,
}


def dispatch(cfg):
    """Route a validated configuration to its module operation."""
    report, lines = HANDLERS[cfg.command](cfg)
    return report, lines


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        report, lines = dispatch(cfg)
    except ConfigError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if cfg.emit_json:
        print(report.to_json())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
