"""Command-line front end: grading reports, verification suites, simulations.

Exit codes: 0 all checks passed, 1 suite failure, 2 usage error, 3 runtime
abort (collision mid-trajectory; the partial CSV is flushed with a
truncation marker row).  All randomized suites are reproducible from the
seed (flag, else the LAXKIT_SEED environment variable, else 0); JSON
reports carry schema_version and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

import numpy as np

from . import calogero, formal, liealg, sphere
from .elliptic import Lattice
from .ratfunc import INF, rat_const

SCHEMA_VERSION = 1


def _seed_of(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("LAXKIT_SEED")
    return int(env) if env else 0


def _usage_error(message):
    """Print the usage error line; returns the usage exit code."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(payload, out=None):
    text = json.dumps(payload, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# grading
# ---------------------------------------------------------------------------


def cmd_grading(args):
    try:
        alg, dec = liealg.catalog_grading(liealg.family_to_kind(args.family), args.rank,
                                          args.root, dual=args.dual)
    except ValueError as exc:
        return _usage_error(exc)
    dims = {str(p): dec.dim_subspace(p) for p in sorted(dec.subspaces)}
    payload = {
        "schema_version": SCHEMA_VERSION,
        "family": args.family,
        "rank": args.rank,
        "root": args.root,
        "dual": args.dual,
        "depth": dec.depth,
        "dims": dims,
        "dim_algebra": alg.dim,
        "balance_residual": liealg.filtration_balance_residual(dec),
        "balance_residual_odd": liealg.filtration_balance_residual_odd(dec),
    }
    if args.json or args.out:
        _emit(payload, args.out)
    else:
        print(f"{args.family} rank {args.rank}, grading by simple root {args.root}"
              + (" (dual)" if args.dual else ""))
        print(f"depth k = {dec.depth}")
        print("subspace dims: " + "  ".join(f"g[{p}]={d}" for p, d in dims.items()))
        print(f"filtration balance residual: {payload['balance_residual']}"
              f" (odd-orthogonal variant: {payload['balance_residual_odd']})")
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_closure(seed, pairs=200):
    rng = random.Random(seed)
    checks = []
    for kind, rank, root in liealg.acceptance_catalog():
        alg, dec = liealg.catalog_grading(kind, rank, root)
        bad = None
        for i in range(pairs):
            a = formal.random_lax_expansion(dec, rng)
            b = formal.random_lax_expansion(dec, rng)
            v = formal.validate_lax(formal.commutator(a, b))
            if v:
                bad = {"pair_index": i, "violations": [list(x) for x in v]}
                break
        checks.append({
            "name": f"closure/{kind}{rank}/root{root}",
            "passed": bad is None,
            "count": pairs,
            "counterexample": bad,
        })
    return checks


def _dims_configs(seed):
    rng = random.Random(seed)
    pts = lambda: Fraction(rng.randint(-40, 40), rng.randint(1, 7))
    out = []
    for kind, rank in (("gl", 2), ("sl", 2), ("so_even", 2), ("sp", 2)):
        alg, dec = liealg.catalog_grading(kind, rank, 1)
        for cfg_i in range(3):
            for n_p in (1, 2):
                for _ in range(40):
                    p_points = tuple(sorted({pts() for _ in range(n_p)}))
                    if len(p_points) < n_p:
                        continue
                    if dec.depth == 1:
                        gammas = tuple(sorted({pts() for _ in range(n_p)}))
                        frames = None
                    else:
                        k_g = 2 if n_p == 1 else 1
                        gammas = tuple(sorted({pts() for _ in range(k_g)}))
                        frames = tuple(formal.random_group_element(alg, rng) for _ in gammas)
                        if n_p == 2 and len(gammas) == 1:
                            frames = None
                    allpts = set(p_points) | set(gammas)
                    if len(allpts) < len(p_points) + len(gammas):
                        continue
                    try:
                        cfg = sphere.SphereConfig(dec, p_points, (INF,), gammas, frames)
                    except ValueError:
                        continue
                    out.append((kind, rank, n_p, cfg))
                    break
    return out


def _suite_dims(seed):
    checks = []
    for kind, rank, n_p, cfg in _dims_configs(seed):
        expected = n_p * cfg.alg.dim
        bad = None
        for m in range(-2, 3):
            try:
                sl = sphere.build_homogeneous_subspace(cfg, m)
            except sphere.SliceDimensionError as exc:
                bad = {"m": m, "achieved": exc.achieved, "expected": exc.expected}
                break
            if sl.dim != expected:
                bad = {"m": m, "achieved": sl.dim, "expected": expected}
                break
        checks.append({
            "name": f"dims/{kind}{rank}/N{n_p}/G{len(cfg.gamma_points)}",
            "passed": bad is None,
            "expected": expected,
            "counterexample": bad,
        })
    return checks


def _gl2_cocycle_setup():
    alg, dec = liealg.catalog_grading("gl", 2, 1)
    cfg = sphere.SphereConfig(dec, (Fraction(0),), (INF,), (Fraction(3),))
    window = sphere.SliceWindow(cfg, -3, 3)
    omega = sphere.standard_connection_form(cfg)
    return cfg, window, omega


def _rand_member(rng, sl):
    out = None
    for b in sl.basis:
        c = rng.randint(-2, 2)
        if c:
            t = b.scale(rat_const(c))
            out = t if out is None else out + t
    return out if out is not None else sl.basis[0].scale(rat_const(0))


def _suite_cocycle(seed, triples=50):
    rng = random.Random(seed)
    cfg, win, omega = _gl2_cocycle_setup()
    checks = []
    tail_bad = None
    for m in (-1, 0, 1):
        l1 = _rand_member(rng, win.slices[m])
        l2 = _rand_member(rng, win.slices[-m])
        for gi, g in enumerate(cfg.gamma_points):
            tail = sphere.cocycle_holomorphy_tail(cfg, l1, l2, omega, g)
            if tail:
                tail_bad = {"gamma": str(g), "degrees": sorted(tail)}
    checks.append({"name": "cocycle/holomorphy", "passed": tail_bad is None,
                   "counterexample": tail_bad})
    ident_bad = None
    for i in range(triples):
        ms = [rng.randint(-2, 2) for _ in range(3)]
        f1, f2, f3 = (_rand_member(rng, win.slices[m]) for m in ms)
        s = (sphere.cocycle_eta(cfg, f1.comm(f2), f3, omega)
             + sphere.cocycle_eta(cfg, f2.comm(f3), f1, omega)
             + sphere.cocycle_eta(cfg, f3.comm(f1), f2, omega))
        if s != 0:
            ident_bad = {"triple_index": i, "residual": str(s)}
            break
    checks.append({"name": "cocycle/jacobi-identity", "passed": ident_bad is None,
                   "count": triples, "counterexample": ident_bad})
    nonzero_sums = set()
    for m in range(-3, 4):
        for n in range(-3, 4):
            if not -6 <= m + n <= 6:
                continue
            if any(sphere.cocycle_eta(cfg, bi, bj, omega) != 0
                   for bi in win.slices[m].basis for bj in win.slices[n].basis):
                nonzero_sums.add(m + n)
    bound = max((abs(s) for s in nonzero_sums), default=0)
    checks.append({"name": "cocycle/locality", "passed": True,
                   "locality_bound": bound,
                   "nonzero_sums": sorted(nonzero_sums)})
    return checks


def _mop_samples(seed):
    """(M-operator result, tangency report) of the three seeded samples of
    the mops suite."""
    rng = random.Random(seed)
    alg, dec = liealg.catalog_grading("gl", 2, 1)
    frames = (formal.random_group_element(alg, rng), formal.random_group_element(alg, rng))
    cfg = sphere.SphereConfig(dec, (Fraction(0),), (INF, Fraction(9)), (Fraction(3), Fraction(5)), frames)
    pole_orders = {Fraction(0): 0, INF: 1, Fraction(9): 1}
    space = sphere.build_lax_space(cfg, pole_orders)
    for _ in range(3):
        l = _rand_member(rng, space)
        res = sphere.construct_m_operator(cfg, l, power=2, pole_point=Fraction(0),
                                          order=2, norm_points=(Fraction(7), Fraction(11)))
        yield res, sphere.lax_tangency_check(cfg, l, res.matrix, pole_orders)


def _suite_mops(seed):
    checks = []
    for i, (res, rep) in enumerate(_mop_samples(seed)):
        checks.append({
            "name": f"mops/gl2/sample{i}",
            "passed": res.prenorm_dim == res.expected_prenorm_dim and rep.ok,
            "prenorm_dim": res.prenorm_dim,
            "expected_prenorm_dim": res.expected_prenorm_dim,
            "tangency_ok": bool(rep.ok),
        })
    return checks


def _suite_tyurin(seed, samples=20):
    rng = random.Random(seed)
    checks = []
    cases = [("gl", 3, 1), ("so_even", 3, 1), ("so_odd", 2, 1), ("sp", 2, 1), ("g2", 2, 2)]
    for kind, rank, root in cases:
        alg, dec = liealg.catalog_grading(kind, rank, root)
        bad = None
        for i in range(samples):
            if kind == "g2":
                e = formal.random_lax_expansion(dec, rng, trunc=2)
                rep = formal.validate_tyurin_form(alg, dec, e)
            else:
                g = formal.random_group_element(alg, rng)
                e = formal.conjugate_series(formal.random_lax_expansion(dec, rng, trunc=2), g)
                rep = formal.validate_tyurin_form(alg, dec, e, g)
            if not rep.ok:
                bad = {"sample": i, "violations": rep.violations}
                break
        checks.append({"name": f"tyurin/{kind}{rank}", "passed": bad is None,
                       "count": samples, "counterexample": bad})
    return checks


_SUITES = {
    "closure": _suite_closure,
    "dims": _suite_dims,
    "cocycle": _suite_cocycle,
    "mops": _suite_mops,
    "tyurin": _suite_tyurin,
}


def cmd_verify(args):
    if args.pairs < 1:
        return _usage_error("--pairs must be at least 1")
    seed = _seed_of(args)
    fn = _SUITES[args.suite]
    checks = fn(seed) if args.suite != "closure" else fn(seed, pairs=args.pairs)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "suite": args.suite,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
    _emit(payload, args.out)
    return 0 if payload["all_passed"] else 1


# ---------------------------------------------------------------------------
# simulations
# ---------------------------------------------------------------------------


def cmd_cm(args):
    if args.q0 is not None and args.family != "B":
        return _usage_error("--q0 applies to the B family only")
    if args.n < 1:
        return _usage_error("--n must be at least 1")
    if args.dt <= 0:
        return _usage_error("--dt must be positive")
    if args.period <= 0:
        return _usage_error("--period must be positive")
    try:
        tau = complex(args.tau)
    except ValueError:
        return _usage_error(f"--tau must be a complex number, got {args.tau!r}")
    if tau.imag <= 0:
        return _usage_error("--tau must have a positive imaginary part")
    seed = _seed_of(args)
    rng = np.random.default_rng(seed)
    if args.period != calogero.CONSERVATION_PERIOD or tau != 1j:
        try:
            lat = Lattice(args.period, args.period * tau)
        except ValueError as exc:
            return _usage_error(f"--tau {args.tau}: {exc}")
        q0 = args.q0 if args.q0 is not None else 0.085 * args.period
        sys_ = calogero.CMSystem(args.family, args.n, lat, q0=q0)
        state = calogero.random_state(sys_, rng, p_scale=0.12,
                                      lo=0.2 * args.period, hi=0.88 * args.period)
    else:
        sys_, state = calogero.conservation_initial_data(args.family, args.n, rng,
                                                         period=args.period)
        if args.q0 is not None:
            sys_ = calogero.CMSystem(args.family, args.n, sys_.lattice, q0=args.q0)
    z_samples = calogero.conservation_z_samples(sys_.lattice)
    try:
        traj, report = calogero.run_conservation(sys_, state, args.T, args.dt,
                                                 scheme=args.scheme, z_samples=z_samples)
    except calogero.CollisionError as exc:
        if args.out and exc.trajectory is not None:
            calogero.write_trajectory_csv(args.out, sys_, exc.trajectory,
                                          z_samples=z_samples, truncated=True)
        print(f"aborted: {exc}", file=sys.stderr)
        return 3
    report["schema_version"] = SCHEMA_VERSION
    report["seed"] = seed
    if args.brackets:
        powers = [2, 3] if args.family == "A" else [2, 4]
        table = calogero.involution_table(sys_, state, [(p, 1) for p in powers])
        report["bracket_table"] = {f"{a}|{b}": v for (a, b), v in table.items()}
    if args.out:
        calogero.write_trajectory_csv(args.out, sys_, traj, z_samples=z_samples)
    if args.report:
        _emit(report, args.report)
    else:
        _emit(report)
    return 0


def cmd_involution(args):
    if args.n < 1:
        return _usage_error("--n must be at least 1")
    try:
        powers = [int(p) for p in args.powers.split(",") if p.strip()]
    except ValueError:
        return _usage_error(f"--powers must be comma-separated integers, got {args.powers!r}")
    if any(p < 1 for p in powers):
        return _usage_error(f"--powers must be at least 1, got {args.powers!r}")
    seed = _seed_of(args)
    rng = np.random.default_rng(seed)
    if args.family in ("B", "C", "D"):
        powers = [p for p in powers if p % 2 == 0]
    specs = [(p, 1) for p in powers]
    sys_, state = calogero.conservation_initial_data(args.family, args.n, rng)
    w = abs(sys_.lattice.omega1)
    for _ in range(10):
        try:
            table = calogero.involution_table(sys_, state, specs)
            break
        except (calogero.CollisionError, ValueError):
            state = calogero.random_state(sys_, rng, p_scale=0.12,
                                          lo=0.2 * w, hi=0.88 * w)
    else:
        print("error: could not sample a usable state", file=sys.stderr)
        return 3
    payload = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "family": args.family,
        "n": args.n,
        "powers": powers,
        "bracket_table": {f"{a}|{b}": v for (a, b), v in table.items()},
        "max_abs_bracket": max(table.values(), default=0.0),
    }
    _emit(payload, args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(prog="laxkit",
                                 description="graded current algebras and elliptic Calogero-Moser diagnostics")
    ap.add_argument("--config", help="JSON file with default option values (flags override)")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grading", help="depth and dimensions of a simple-root grading")
    g.add_argument("--family", required=True, choices=("A", "B", "C", "D", "G2"))
    g.add_argument("--rank", required=True, type=int)
    g.add_argument("--root", required=True, type=int)
    g.add_argument("--dual", action="store_true")
    g.add_argument("--json", action="store_true")
    g.add_argument("--out")
    g.set_defaults(fn=cmd_grading)

    v = sub.add_parser("verify", help="run an exact verification suite")
    v.add_argument("--suite", required=True, choices=sorted(_SUITES))
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--pairs", type=int, default=200, help="random pairs per grading (closure)")
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    c = sub.add_parser("cm", help="integrate a Calogero-Moser system and report conservation")
    c.add_argument("--family", required=True, choices=("A", "B", "C", "D"))
    c.add_argument("--n", required=True, type=int)
    c.add_argument("--T", type=float, default=10.0)
    c.add_argument("--dt", type=float, default=1e-3)
    c.add_argument("--scheme", choices=("rk4", "leapfrog"), default="rk4")
    c.add_argument("--tau", default="1j", help="lattice ratio omega2/omega1")
    c.add_argument("--period", type=float, default=calogero.CONSERVATION_PERIOD,
                   help="half-period omega1")
    c.add_argument("--q0", type=float, default=None, help="frozen extra point (B family)")
    c.add_argument("--seed", type=int, default=None)
    c.add_argument("--out", help="trajectory CSV path")
    c.add_argument("--report", help="conservation JSON path")
    c.add_argument("--brackets", action="store_true",
                   help="include a Poisson bracket table in the report")
    c.set_defaults(fn=cmd_cm)

    i = sub.add_parser("involution", help="pairwise Poisson brackets of residue Hamiltonians")
    i.add_argument("--family", required=True, choices=("A", "B", "C", "D"))
    i.add_argument("--n", required=True, type=int)
    i.add_argument("--powers", default="2,3,4")
    i.add_argument("--seed", type=int, default=None)
    i.add_argument("--out")
    i.set_defaults(fn=cmd_involution)
    return ap, sub.choices


def main(argv=None):
    ap, subparsers = _build_parser()
    # --config is read before the full parse, which would stop at a required
    # option that only the config file supplies
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    if config:
        with open(config) as fh:
            conf = json.load(fh)
        for name, sub in subparsers.items():
            values = conf.get(name, conf)
            # on the subparser: its own defaults would override the top-level parser's
            sub.set_defaults(**values)
            for action in sub._actions:
                if action.dest in values:
                    action.required = False
    args = ap.parse_args(argv)
    if config:
        # argparse checks choices on flags only; a config value, converted like
        # a flag's string, gets the same usage error
        sub = subparsers[args.command]
        for action in sub._actions:
            if action.dest in conf.get(args.command, conf):
                try:
                    sub._check_value(action, getattr(args, action.dest))
                except argparse.ArgumentError as exc:
                    sub.error(str(exc))
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
