"""Command-line front end.

Subcommands
-----------
verify              run the seeded residual suites, write a JSON report
polarization-table  emit the polarization 4-vectors and B/E triplets as CSV
massless-scan       norm-vs-mass ladder per mode/scheme, CSV + JSON slopes
planewave           build a chi-extended plane wave and print its residuals
simulate            run the time-domain solver from a JSON scenario file

Exit codes: 0 success, 1 check failure, 2 usage or configuration error.
Floats are serialized with repr (shortest exact form), so every emitted CSV
or JSON value round-trips to the identical double.

A command makes its --out only when it writes its first file, so one that
fails before then leaves a missing --out missing; `simulate` leaves that to
`chi_solver.run`, which makes it once the t = 0 data has passed its gate.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import chi_solver
from . import planewaves as pw
from . import polarization as pol
from .errors import ChiMaxwellError
from .verify import run_verification

__all__ = ["main"]


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_vec3(text: str) -> np.ndarray:
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated numbers")
    return np.array(parts)


def _parse_modes(text: str) -> list[str]:
    modes = [m.strip() for m in text.split(",") if m.strip()]
    for m in modes:
        if m not in pol.MODES:
            raise argparse.ArgumentTypeError(
                f"unknown mode {m!r}; choose from {', '.join(pol.MODES)}"
            )
    return modes


def _write_text(path: Path, text: str) -> None:
    """Write text to path, making its directory first: where --out is made."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _write_json(path: Path, payload: dict) -> None:
    """payload as strict JSON; one that is not writes no file."""
    _write_text(path, chi_solver._json_text(path.name, payload) + "\n")


def _cmd_verify(args) -> int:
    report = run_verification(args.seed, args.trials)
    payload = report.to_dict()
    payload["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    _write_json(Path(args.out) / "verify_report.json", payload)
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status}  {c.name:<{width}}  residual {c.residual:.3e}  tol {c.tolerance:.0e}")
    print(f"{'OK' if report.overall_pass else 'FAILED'}: "
          f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks "
          f"(seed={args.seed}, trials={args.trials})")
    return 0 if report.overall_pass else 1


def _table_vectors(p: np.ndarray, modes: list[str], m: float, scheme):
    """(field, lambda, energy_sign, index of the first component, amplitude
    vector) of each block of rows one momentum adds to the table: the u of
    every mode, then the B and E triplets of every triplet mode."""
    for mode in modes:
        yield "u", mode, "", 0, pol.polarization_vector(p, mode, m, scheme).u
    for mode in (mode for mode in modes if mode in pol.TRIPLET_MODES):
        for kind in ("B", "E"):
            for sign in (+1, -1):
                vec = pol.field_triplet(p, mode, kind, sign, m, scheme).vec
                yield kind, mode, f"{sign:+d}", 1, vec


def _cmd_polarization_table(args) -> int:
    scheme = pol.SCHEMES[args.scheme]
    momenta = args.p or [np.array([0.0, 0.0, 0.0])]
    lines = ["field,lambda,energy_sign,component,real,imag,px,py,pz,mass"]
    for p in momenta:
        suffix = ",".join(_fmt(v) for v in (*p, args.mass))
        for field, mode, sign, first, vec in _table_vectors(p, args.modes, args.mass, scheme):
            lines += [",".join([field, mode, sign, str(first + i), _fmt(z.real), _fmt(z.imag),
                                suffix]) for i, z in enumerate(vec)]
    path = Path(args.out) / "polarization_table.csv"
    _write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path} ({len(lines) - 1} rows)")
    return 0


def _cmd_massless_scan(args) -> int:
    scheme = pol.SCHEMES[args.scheme]
    # Every norm and slope first, so an input that overflows writes nothing.
    lines = ["m,norm,mode,scheme"]
    slopes = {}
    for mode in args.modes:
        norms = pol.massless_norms(mode, scheme, args.p)
        lines += [f"{_fmt(m)},{_fmt(norm)},{mode},{scheme.label}"
                  for m, norm in zip(pol.MASSLESS_SCAN_MASSES, norms)]
        slopes[mode] = pol.massless_slope(norms)
    out = Path(args.out)
    _write_text(out / "massless_scan.csv", "\n".join(lines) + "\n")
    payload = {
        "scheme": scheme.label,
        "p": [float(v) for v in args.p],
        "masses": list(pol.MASSLESS_SCAN_MASSES),
        "slopes": slopes,
    }
    _write_json(out / "massless_scan.json", payload)
    for mode, slope in slopes.items():
        print(f"mode {mode:>3}  scheme {scheme.label:<9} slope {slope:+.4f}")
    return 0


def _cmd_planewave(args) -> int:
    state, v = pw.build_generalized_planewave(
        args.p, args.energy_sign, args.amplitude, args.chi
    )
    # Residuals that overflow reach the strict JSON writer, which rejects
    # them with the one error line; no warning besides.
    with np.errstate(over="ignore", invalid="ignore"):
        r1, r2 = pw.generalized_solution_residual(state, v)
    payload = {
        "p": [float(x) for x in state.p],
        "energy": state.energy,
        "psi_real": [float(x) for x in v.psi.real],
        "psi_imag": [float(x) for x in v.psi.imag],
        "chi": [v.chi.real, v.chi.imag],
        "residual_first": r1,
        "residual_divergence": r2,
        "on_shell": state.on_shell(),
    }
    _write_json(Path(args.out) / "planewave.json", payload)
    print(f"E = {_fmt(state.energy)}  residuals: ({r1:.3e}, {r2:.3e})")
    return 0


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise ChiMaxwellError(f"cannot read config {path}: {exc}") from exc


_REQUIRED = object()


def _number(table: dict, key: str, default=_REQUIRED, integer: bool = False):
    """table[key] (default if given and the key is absent), checked to be a
    JSON integer (integer=True) or a JSON number; a bool is neither."""
    value = table[key] if default is _REQUIRED else table.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ChiMaxwellError(f"{key!r} takes {'an integer' if integer else 'a number'}, "
                              f"got {value!r}")
    return value if integer else float(value)


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    try:
        grid_cfg = cfg["grid"]
        grid = chi_solver.Grid(
            n=_number(grid_cfg, "n", integer=True),
            length=_number(grid_cfg, "L"),
            dims=_number(grid_cfg, "dims", 3, integer=True),
        )
        scenario = cfg["scenario"]
        # Physical-unit ingestion: internal time is (length unit) / c.
        c_phys = _number(cfg, "c", 1.0)
        t_end = _number(cfg, "t_end") * c_phys
        dt = cfg.get("dt")
        dt = _number(cfg, "dt") * c_phys if dt is not None else None
        output_every = _number(cfg, "output_every", 0, integer=True)
        chi_mode = cfg.get("chi_mode", "real")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ChiMaxwellError(f"bad scenario config: {exc}") from exc

    out = Path(args.out)  # made by run
    # Only 1-D profiles need intermediate states; run keeps the endpoints.
    profiles = grid.dims == 1 and args.format == "csv"
    n_steps, dt_eff, _, outputs = chi_solver._schedule(grid, t_end, dt, output_every)
    if profiles:  # run counts its snapshots only; a profile goes beside each
        chi_solver._check_room(grid, outputs, outputs, out,
                               len(_PROFILE_HEADER) + 1 + _PROFILE_ROW_BYTES * grid.n)
    final, diags, snapshots = chi_solver.run(
        grid, scenario, t_end, dt, output_every, chi_mode=chi_mode, out_dir=out,
        keep_snapshots=profiles,
    )
    last = diags[-1]
    first = snapshots[0]
    # Fields that overflow here make the summary non-finite, which its
    # strict writer rejects with the one error line; no warning besides.
    with np.errstate(over="ignore", invalid="ignore"):
        num = np.sqrt(np.mean((final.e - first.e) ** 2 + (final.b - first.b) ** 2)
                      + np.mean((final.chi_re - first.chi_re) ** 2
                                + (final.chi_im - first.chi_im) ** 2))
        den = np.sqrt(np.mean(first.e ** 2 + first.b ** 2)
                      + np.mean(first.chi_re ** 2 + first.chi_im ** 2))
        l2_change = num / max(den, 1e-300)
    summary = {
        "version": __version__,
        "steps": n_steps,
        "dt_eff": dt_eff / c_phys,
        "cfl_ratio": dt_eff / chi_solver.cfl_bound(grid),
        "t_end": final.t / c_phys,
        "grid": {"n": grid.n, "L": grid.length, "dims": grid.dims},
        "final": {**{name: getattr(last, f"{name}_residual") for name in chi_solver.RESIDUALS},
                  "energy": last.energy},
        "max_over_series": {name: max(getattr(d, f"{name}_residual") for d in diags)
                            for name in chi_solver.RESIDUALS},
        "energy_drift": abs(diags[-1].energy - diags[0].energy)
        / max(abs(diags[0].energy), 1e-300),
        "l2_change_from_initial": l2_change,
    }
    # Serialized first, so a summary that is not strict JSON writes no profile.
    text = chi_solver._json_text("summary.json", summary) + "\n"
    if profiles:
        z = _column_text(np.arange(grid.n) * grid.dx)  # the same in every profile
        for i, snap in enumerate(snapshots):
            _write_profile_csv(out / f"profile_{i:06d}.csv", snap, z)
    _write_text(out / "summary.json", text)
    print(f"t = {final.t:g}: gauss_e {last.gauss_e_residual:.3e}, "
          f"gauss_b {last.gauss_b_residual:.3e}, energy {last.energy:.6g}")
    return 0


def _column_text(column: np.ndarray) -> list[str]:
    """repr of every value of a float64 column.  A column of +0.0 bits only
    (not -0.0, which prints as such) is "0.0" throughout, unformatted."""
    if not column.view(np.uint64).any():
        return ["0.0"] * column.size
    return list(map(repr, column.tolist()))


_PROFILE_HEADER = "z,ex,ey,ez,bx,by,bz,chi_re,chi_im,chi_re_t,chi_im_t"
# A profile row is at most 11 reprs of 24 characters (as in
# -1.2345678901234567e-300), 10 commas and a newline.
_PROFILE_ROW_BYTES = 11 * 24 + 11


def _write_profile_csv(path: Path, state: chi_solver.FieldState, z: list[str]) -> None:
    """One 1-D profile, built column by column; z is `_column_text` of the
    grid coordinates."""
    cols = [z, *map(_column_text, [*state.e, *state.b, state.chi_re, state.chi_im,
                                   state.chi_re_t, state.chi_im_t])]
    path.write_text("\n".join([_PROFILE_HEADER, *map(",".join, zip(*cols))]) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chimaxwell",
        description="Verification and simulation of the scalar-extended Maxwell system",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def int_from(low: int):
        def integer(text: str) -> int:
            value = int(text)
            if value < low:
                raise argparse.ArgumentTypeError(f"must be >= {low}")
            return value
        return integer

    p_verify = sub.add_parser("verify", help="run the seeded identity suites")
    p_verify.add_argument("--seed", type=int_from(0), default=0)
    p_verify.add_argument("--trials", type=int_from(1), default=1000)
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser("polarization-table", help="emit mode amplitudes as CSV")
    p_table.add_argument("--p", type=_parse_vec3, action="append",
                         help="momentum px,py,pz (repeatable; default rest frame)")
    p_table.add_argument("--modes", type=_parse_modes,
                         default=list(pol.MODES), metavar="M1,M2,...")
    p_table.add_argument("--mass", type=float, default=1.0)
    p_table.add_argument("--scheme", choices=sorted(pol.SCHEMES), default="constant")
    p_table.set_defaults(func=_cmd_polarization_table)

    p_scan = sub.add_parser("massless-scan", help="norm-vs-mass ladder per mode")
    p_scan.add_argument("--modes", type=_parse_modes, default=list(pol.MODES))
    p_scan.add_argument("--scheme", choices=sorted(pol.SCHEMES), default="constant")
    p_scan.add_argument("--p", type=_parse_vec3, default=np.array([1.0, 2.0, 2.0]))
    p_scan.set_defaults(func=_cmd_massless_scan)

    p_wave = sub.add_parser("planewave", help="build a chi-extended plane wave")
    p_wave.add_argument("--p", type=_parse_vec3, required=True)
    p_wave.add_argument("--energy-sign", type=int, choices=(-1, 1), default=1)
    p_wave.add_argument("--amplitude", type=complex, default=1 + 0j,
                        help="transverse amplitude, python complex syntax")
    p_wave.add_argument("--chi", type=complex, default=0j)
    p_wave.set_defaults(func=_cmd_planewave)

    p_sim = sub.add_parser("simulate", help="run the time-domain solver")
    p_sim.add_argument("--config", required=True, help="JSON scenario file")
    p_sim.add_argument("--format", choices=("csv", "json"), default="json",
                       help="csv additionally writes 1-D field profiles")
    p_sim.set_defaults(func=_cmd_simulate)

    for p_cmd in sub.choices.values():
        p_cmd.add_argument("--out", default=".",
                           help="output directory, made at the first file written")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChiMaxwellError, OSError) as exc:  # OSError: say, an --out that is a file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
