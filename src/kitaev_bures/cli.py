"""Command-line front end: tensors, sweeps, scaling fits, ratio maps, phase.

Each command writes one format whatever the --out name: tensor and scaling
JSON, sweep and ratio-map CSV, phase one line of text; '-' (the default)
streams to stdout.  Each command takes only the flags it reads; --threads
belongs to ratio-map alone.

A plain-text config file (--config, one `key = value` per line, '#'
comments) is read as the flags it stands for, placed before the command
line, so command-line flags win.  A flag taking one value gets the whole
string (`temp = 0.5, 0.7`), a flag with several values takes them
separated by spaces, and a switch is set by true/1/yes and left out by
false/0/no.

Exit codes follow the failure type: 0 success, 2 usage or invalid input
(every ValueError, the library's included, and an unreadable --config or
unwritable --out), 3 numerical non-convergence, 4 a scaling fit that fails
on computed samples.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import scaling
from .quadrature import GridSpec, QuadratureConvergenceError
from .spectrum import Couplings, PhaseRegion, classify_phase, dirac_points, fermion_gap
from .thermal_metric import (
    CLASSICAL_PAIRS,
    ParameterIndex,
    ThermoPoint,
    nonclassical_corrections,
    tensor_finite,
    tensor_thermodynamic,
    tensors_thermodynamic,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICS = 3
EXIT_FIT = 4

_PARAMS = {p.name.lower(): p for p in ParameterIndex}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _matrix(m: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in m]


def _parse_element(token: str) -> tuple[ParameterIndex, ParameterIndex]:
    parts = token.lower().split("-")
    if len(parts) != 2 or parts[0] not in _PARAMS or parts[1] not in _PARAMS:
        raise ValueError(f"invalid element {token!r} (expected e.g. 'beta-jx' or 'jz-jz')")
    return _PARAMS[parts[0]], _PARAMS[parts[1]]


_SWITCH = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _config_args(parser: argparse.ArgumentParser, path: str) -> list[str]:
    """The command-line tokens a config file stands for: `--key=value` for a
    flag taking one value, `--key` and the whitespace-split value for a flag
    taking several, `--key` or nothing for a switch."""
    tokens: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = (s.strip() for s in line.partition("="))
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            flag = "--" + key
            action = parser._option_string_actions.get(flag)
            if action is None or key in ("config", "help"):
                raise ValueError(f"unknown config key {key!r}")
            if action.nargs == 0:
                if value.lower() not in _SWITCH:
                    raise ValueError(f"config switch {key!r} takes true/false, 1/0 or yes/no")
                tokens += [flag] if _SWITCH[value.lower()] else []
            elif action.nargs is None:
                tokens.append(f"{flag}={value}")
            else:
                tokens += [flag, *value.split()]
    return tokens


def _couplings_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"kitaev-bures {command}")
    for name in ("jx", "jy", "jz"):
        parser.add_argument(f"--{name}", type=float, required=True)
    return parser


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Add --config and --out, then parse the config file's flags followed
    by the command line; an error then also names the config file."""
    parser.add_argument("--config", help="key = value file read as flags; flags override it")
    parser.add_argument("--out", default="-", help="output path, or '-' for stdout")
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    config = pre.parse_known_args(argv)[0].config
    if config:
        argv = _config_args(parser, config) + argv
        error = parser.error
        parser.error = lambda msg: error(f"{msg} (config {config} is read as flags first)")
    return parser.parse_args(argv)


def _add_grid(parser: argparse.ArgumentParser, tol: float = 1e-6):
    parser.add_argument("--grid-n", type=int, default=128, help="base quadrature points per axis")
    parser.add_argument("--tol", type=float, default=tol, help="relative quadrature tolerance")
    parser.add_argument(
        "--refine-levels", type=int, default=3,
        help="highest disk level pair (N, N+1); the ladder starts one level below it",
    )


def _grid_from(args) -> GridSpec:
    return GridSpec(base_n=args.grid_n, target_rel_tol=args.tol, refine_levels=args.refine_levels)


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_json(path: str, command: str, **fields):
    doc = {"schema_version": SCHEMA_VERSION, "command": command, **fields}
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def _phase_payload(couplings: Couplings) -> dict:
    region = classify_phase(couplings)
    payload: dict = {"region": region.value}
    if region.is_gapped or region is PhaseRegion.CRITICAL_BOUNDARY:
        payload["gap"] = fermion_gap(couplings)
    if not region.is_gapped:
        payload["dirac_points"] = [[p.px, p.py] for p in dirac_points(couplings)]
    return payload


# ---------------------------------------------------------------------------
# tensor


def cmd_tensor(argv: list[str]) -> int:
    parser = _couplings_parser("tensor")
    parser.add_argument("--temp", type=float, required=True, help="temperature (0 = zero-T limit)")
    parser.add_argument("--size", type=int, help="odd L for a finite momentum grid")
    _add_grid(parser)
    args = _parse(parser, argv)
    couplings = Couplings(args.jx, args.jy, args.jz)
    tp = ThermoPoint.from_temperature(couplings, args.temp)
    if args.size is not None:
        tensor = tensor_finite(tp, args.size)
        evaluation = {"method": "finite", "L": args.size}
    else:
        tensor = tensor_thermodynamic(tp, _grid_from(args))
        d = tensor.evaluation.details
        evaluation = {
            "method": "thermodynamic",
            "base_n": args.grid_n,
            "tolerance": args.tol,
            "evaluations": d["evaluations"],
            "error_classical": _matrix(d["error_classical"]),
            "error_nonclassical": _matrix(d["error_nonclassical"]),
        }
    _write_json(
        args.out,
        "tensor",
        params={"jx": couplings.jx, "jy": couplings.jy, "jz": couplings.jz, "temp": args.temp},
        phase=_phase_payload(couplings),
        index_order=["beta", "jx", "jy", "jz"],
        classical=_matrix(tensor.classical),
        nonclassical=_matrix(tensor.nonclassical),
        evaluation=evaluation,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _parse_path(tokens: list[str]) -> tuple[Couplings, Couplings]:
    spec = {}
    for tok in tokens:
        key, _, val = tok.partition("=")
        parts = val.split(",")
        if key not in ("start", "end") or len(parts) != 3:
            raise ValueError(f"path token {tok!r} must look like start=jx,jy,jz")
        try:
            spec[key] = Couplings(*(float(p) for p in parts))
        except ValueError as exc:
            raise ValueError(f"invalid path coordinates in {tok!r}: {exc}") from exc
    if set(spec) != {"start", "end"}:
        raise ValueError("path requires both start= and end=")
    return spec["start"], spec["end"]


def cmd_sweep(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kitaev-bures sweep")
    parser.add_argument(
        "--path", nargs=2, required=True, metavar=("start=JX,JY,JZ", "end=JX,JY,JZ")
    )
    parser.add_argument("--steps", type=int, default=21)
    parser.add_argument("--temp", type=str, default="0", help="temperature, or comma list")
    parser.add_argument("--size", type=int, help="odd L; omit for thermodynamic quadrature")
    parser.add_argument("--elements", type=str, help="comma list like jz-jz,beta-beta (default all)")
    _add_grid(parser)
    args = _parse(parser, argv)
    start, end = _parse_path(args.path)
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    try:
        temps = [float(t) for t in args.temp.split(",")]
    except ValueError as exc:
        raise ValueError(f"invalid temp list {args.temp!r}") from exc
    if args.elements:
        pairs = [_parse_element(tok) for tok in args.elements.split(",")]
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    else:
        pairs = list(CLASSICAL_PAIRS)
    params = np.linspace(0.0, 1.0, args.steps) if args.steps > 1 else np.array([0.0])
    elements = [("c", mu, nu) for mu, nu in pairs]
    elements += [("nc", mu, nu) for mu, nu in pairs if mu is not ParameterIndex.BETA]
    a, b = start.as_array(), end.as_array()
    path = [Couplings(*(a + s * (b - a))) for s in params]

    def at_point(couplings):
        """Tensors at every temperature of one path point; the quadrature
        integrates them in one batch."""
        points = [ThermoPoint.from_temperature(couplings, t) for t in temps]
        if args.size is not None:
            return [tensor_finite(tp, args.size, elements=elements) for tp in points]
        return tensors_thermodynamic(points, _grid_from(args), elements=elements)

    tensors = [at_point(c) for c in path]
    lines = ["param,jx,jy,jz,temp,element,classical,nonclassical"]
    for t, temp in enumerate(temps):
        for s, c, by_temp in zip(params, path, tensors):
            head = ",".join(_fmt(v) for v in (s, c.jx, c.jy, c.jz, temp))
            for mu, nu in pairs:
                values = (by_temp[t].element(part, mu, nu) for part in ("classical", "nonclassical"))
                element = f"{mu.name.lower()}-{nu.name.lower()}"
                lines.append(",".join([head, element, *map(_fmt, values)]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scaling


def _transverse_scale_warning(couplings: Couplings, gap: float, tmax: float) -> list[str]:
    """The T^alpha e^{-gap/T} exponents need T small against every curvature
    scale of the dispersion: s = min(gap, 2|J_b|, 2|J_c|), with J_b, J_c the
    two couplings other than the dominant one."""
    weak = sorted(abs(j) for j in couplings.as_array())[:2]
    s = min(gap, 2.0 * weak[0], 2.0 * weak[1])
    if tmax <= s / 3.0:
        return []
    return [
        f"samples extend beyond the transverse curvature regime (max T {tmax:.3g} "
        f"> s/3 = {s / 3.0:.3g}, s = min(gap, 2|J|) over the two weaker couplings)"
    ]


def cmd_scaling(argv: list[str]) -> int:
    parser = _couplings_parser("scaling")
    parser.add_argument("--tmin", type=float, required=True)
    parser.add_argument("--tmax", type=float, required=True)
    parser.add_argument("--points", type=int, default=10)
    parser.add_argument("--element", type=str, default="nc:jz-jz", help="part:pair, e.g. c:beta-beta")
    parser.add_argument(
        "--model", choices=["auto", "gapped-c", "gapped-nc", "log", "power"], default="auto"
    )
    _add_grid(parser, tol=1e-7)
    args = _parse(parser, argv)
    couplings = Couplings(args.jx, args.jy, args.jz)
    if not (0 < args.tmin < args.tmax):
        raise ValueError("need 0 < tmin < tmax")
    if args.points < 6:
        raise ValueError("points must be >= 6 for the fits")
    if ":" not in args.element:
        raise ValueError("element must look like part:pair, e.g. nc:jz-jz")
    part, pair_tok = args.element.split(":", 1)
    part_name = {"c": "classical", "nc": "nonclassical"}.get(part)
    if part_name is None:
        raise ValueError(f"unknown tensor part {part!r} (expected c or nc)")
    mu, nu = _parse_element(pair_tok)
    region = classify_phase(couplings)
    model = args.model
    if model == "auto":
        if region.is_gapped:
            model = "gapped-c" if part == "c" else "gapped-nc"
        elif region is PhaseRegion.CRITICAL_BOUNDARY:
            model = "power"
        else:
            model = "log"
    # input failures (a gapped model without a gap, an invalid element or
    # coupling) raise outside the fit's try below, so they exit 2, not 4
    gap = fermion_gap(couplings) if model.startswith("gapped") else None
    if gap == 0.0:
        raise ValueError(f"model {model} needs a gap; the coupling is {region.value}")
    grid = _grid_from(args)
    temps = np.geomspace(args.tmin, args.tmax, args.points)
    points = [ThermoPoint.from_temperature(couplings, t) for t in temps]
    elements = [(part, mu, nu)]
    if model == "gapped-nc":
        offset = tensor_thermodynamic(
            ThermoPoint.from_temperature(couplings, 0.0), grid, elements=elements
        ).element(part_name, mu, nu)
        tensors = nonclassical_corrections(points, grid, elements=elements)
    else:
        tensors = tensors_thermodynamic(points, grid, elements=elements)
    samples = np.stack([temps, np.array([t.element(part_name, mu, nu) for t in tensors])], axis=1)
    try:
        if model == "gapped-nc":
            fit = scaling.fit_gapped_nonclassical(samples, gap, offset)
        elif model == "gapped-c":
            fit = scaling.fit_gapped_classical(np.abs(samples), known_gap=gap)
        elif model == "log":
            fit = scaling.fit_log_divergence(samples)
        else:
            fit = scaling.fit_power_law(samples)
    except ValueError as exc:
        sys.stderr.write(f"fit failure: {exc}\n")
        return EXIT_FIT
    warnings = list(fit.warnings)
    if model == "gapped-c":
        warnings += _transverse_scale_warning(couplings, gap, args.tmax)
    _write_json(
        args.out,
        "scaling",
        params={"jx": couplings.jx, "jy": couplings.jy, "jz": couplings.jz,
                "element": args.element, "model": model, "phase": region.value},
        samples=[[float(t), float(g)] for t, g in fit.samples],
        fit={
            "model": type(fit.model).__name__,
            "params": asdict(fit.model),
            "r_squared": fit.r_squared,
            "warnings": warnings,
        },
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# ratio map


def cmd_ratio_map(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kitaev-bures ratio-map")
    parser.add_argument("--jz-min", type=float, default=0.48)
    parser.add_argument("--jz-max", type=float, default=0.52)
    parser.add_argument("--t-min", type=float, default=0.002)
    parser.add_argument("--t-max", type=float, default=0.05)
    parser.add_argument("--res", type=str, default="13x9", help="couplings x temperatures, e.g. 17x12")
    parser.add_argument("--contour", type=float, help="also extract this iso-ratio level")
    parser.add_argument(
        "--synthetic-check",
        action="store_true",
        help="self test: use the constructed map ratio=(|jz-0.5|/T)^2 instead of computing",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=int(os.environ.get("KITAEV_BURES_THREADS", "0")),
        help="worker cap for map columns (0 = auto)",
    )
    _add_grid(parser, tol=1e-4)
    args = _parse(parser, argv)
    try:
        nx, nt = (int(p) for p in args.res.lower().split("x"))
    except ValueError as exc:
        raise ValueError(f"invalid res {args.res!r}, expected NxM") from exc
    if args.contour is not None:
        if args.out == "-":
            raise ValueError("--contour requires --out FILE (writes sidecar files)")
        if not args.contour > 0:
            raise ValueError(f"contour level must be positive, got {args.contour!r}")
    jz_range, t_range = (args.jz_min, args.jz_max), (args.t_min, args.t_max)
    if args.synthetic_check:
        jz, ts = scaling.map_axes(jz_range, t_range, (nx, nt))
        grid_vals = ((np.abs(jz[None, :] - 0.5) + 1e-300) / ts[:, None]) ** 2
        rmap = scaling.RatioMap(
            jz_values=jz,
            temperatures=ts,
            grid=grid_vals,
            element=(ParameterIndex.JZ, ParameterIndex.JZ),
        )
    else:
        rmap = scaling.ratio_map(
            scaling.figure_of_merit_trajectory,
            jz_range,
            t_range,
            (nx, nt),
            grid=_grid_from(args),
            threads=args.threads,
        )
        if rmap.failures:
            for (i, j), reason in rmap.failures:
                sys.stderr.write(
                    f"cell jz={_fmt(rmap.jz_values[j])} T={_fmt(rmap.temperatures[i])} "
                    f"failed: {reason}\n"
                )
            sys.stderr.write(f"{len(rmap.failures)} cells failed quadrature\n")
            return EXIT_NUMERICS
    lines = ["jz,temp,ratio"]
    for i, t in enumerate(rmap.temperatures):
        for j, jz_v in enumerate(rmap.jz_values):
            lines.append(f"{_fmt(jz_v)},{_fmt(t)},{_fmt(rmap.grid[i, j])}")
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.contour is not None:
        contour = scaling.crossover_contour(rmap, args.contour)
        base = args.out[:-4] if args.out.endswith(".csv") else args.out
        pts_lines = ["jz,temp"]
        pts_lines += [f"{_fmt(a)},{_fmt(b)}" for a, b in contour.points]
        _write_text(base + ".contour.csv", "\n".join(pts_lines) + "\n")
        _write_json(
            base + ".contour.json",
            "ratio-map-contour",
            level=contour.level,
            n_points=int(contour.points.shape[0]),
            exponent=contour.exponent,
            intercept=contour.intercept,
            r_squared=contour.r_squared,
            exponent_below=contour.exponent_below,
            exponent_above=contour.exponent_above,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# phase


def cmd_phase(argv: list[str]) -> int:
    args = _parse(_couplings_parser("phase"), argv)
    couplings = Couplings(args.jx, args.jy, args.jz)
    region = classify_phase(couplings)
    if region.is_gapped:
        line = f"{region.value} gap={fermion_gap(couplings):.12g}"
    elif region is PhaseRegion.CRITICAL_BOUNDARY:
        line = region.value
    else:
        pts = dirac_points(couplings)
        pts_txt = ",".join(f"({p.px:.12g},{p.py:.12g})" for p in pts)
        line = f"{region.value} dirac=[{pts_txt}]"
    _write_text(args.out, line + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------


COMMANDS = {
    "tensor": cmd_tensor,
    "sweep": cmd_sweep,
    "scaling": cmd_scaling,
    "ratio-map": cmd_ratio_map,
    "phase": cmd_phase,
}

_USAGE = (
    "usage: kitaev-bures COMMAND [flags]\n"
    "commands: tensor, sweep, scaling, ratio-map, phase\n"
    "run 'kitaev-bures COMMAND --help' for flags\n"
)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stdout.write(_USAGE)
        return EXIT_OK if argv else EXIT_USAGE
    command = COMMANDS.get(argv[0])
    if command is None:
        sys.stderr.write(f"unknown command {argv[0]!r}\n{_USAGE}")
        return EXIT_USAGE
    try:
        return command(argv[1:])
    except SystemExit as exc:  # argparse --help (0) and usage errors (2)
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except QuadratureConvergenceError as exc:
        sys.stderr.write(f"numerical non-convergence: {exc}\n")
        return EXIT_NUMERICS
    except (ValueError, OSError) as exc:  # OSError: unreadable --config or --out
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
