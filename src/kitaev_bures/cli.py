"""Command-line front end: tensors, sweeps, scaling fits, ratio maps, phase.

Exit codes: 0 success, 2 usage/validation, 3 numerical non-convergence,
4 fit failure.  Output format follows the --out extension (.json/.csv);
'-' streams to stdout.  A plain-text config file (one `key = value` per
line, '#' comments) can hold any long flag; command-line flags override it.
"""

from __future__ import annotations

import argparse
import json
import math
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

_PARAMS = {
    "beta": ParameterIndex.BETA,
    "jx": ParameterIndex.JX,
    "jy": ParameterIndex.JY,
    "jz": ParameterIndex.JZ,
}
_PARAM_NAMES = {v: k for k, v in _PARAMS.items()}


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _matrix(m: np.ndarray) -> list[list[float]]:
    return [[float(v) for v in row] for row in m]


def _parse_element(token: str) -> tuple[ParameterIndex, ParameterIndex]:
    parts = token.lower().split("-")
    if len(parts) != 2 or parts[0] not in _PARAMS or parts[1] not in _PARAMS:
        raise UsageError(f"invalid element {token!r} (expected e.g. 'beta-jx' or 'jz-jz')")
    return _PARAMS[parts[0]], _PARAMS[parts[1]]


def _element_token(mu: ParameterIndex, nu: ParameterIndex) -> str:
    return f"{_PARAM_NAMES[mu]}-{_PARAM_NAMES[nu]}"


def _load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _parse_with_config(parser: argparse.ArgumentParser, argv: list[str]):
    """Apply config-file values as defaults, then parse flags over them."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        config = _load_config(known.config)
        by_option = {}
        for action in parser._actions:
            for opt in action.option_strings:
                by_option[opt.lstrip("-")] = action
        for key, value in config.items():
            action = by_option.get(key)
            if action is None or key == "config":
                raise UsageError(f"unknown config key {key!r}")
            try:
                action.default = action.type(value) if action.type else value
            except ValueError as exc:
                raise UsageError(f"invalid config value for {key!r}: {exc}") from exc
    return parser.parse_args(argv)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key = value config file; flags override")
    parser.add_argument("--out", default="-", help="output path (.csv/.json) or '-' for stdout")
    parser.add_argument(
        "--threads",
        type=int,
        default=int(os.environ.get("KITAEV_BURES_THREADS", "0")),
        help="worker cap for map cells (0 = auto)",
    )


def _add_grid(parser: argparse.ArgumentParser, tol: float = 1e-6):
    parser.add_argument("--grid-n", type=int, default=128, help="base quadrature points per axis")
    parser.add_argument("--tol", type=float, default=tol, help="relative quadrature tolerance")
    parser.add_argument(
        "--refine-levels",
        type=int,
        default=3,
        help="highest disk level pair (N, N+1); the ladder starts one level below it",
    )


def _grid_from(args) -> GridSpec:
    return GridSpec(
        base_n=args.grid_n,
        target_rel_tol=args.tol,
        refine_levels=args.refine_levels,
    )


def _couplings_from(args) -> Couplings:
    for name in ("jx", "jy", "jz"):
        if getattr(args, name) is None:
            raise UsageError(f"missing required value for {name}")
    return Couplings(args.jx, args.jy, args.jz)


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    parser = argparse.ArgumentParser(prog="kitaev-bures tensor")
    parser.add_argument("--jx", type=float)
    parser.add_argument("--jy", type=float)
    parser.add_argument("--jz", type=float)
    parser.add_argument("--temp", type=float, help="temperature (0 = zero-T limit)")
    parser.add_argument("--size", type=int, help="odd L for a finite momentum grid")
    _add_grid(parser)
    _add_common(parser)
    args = _parse_with_config(parser, argv)
    couplings = _couplings_from(args)
    if args.temp is None:
        raise UsageError("missing required value for temp")
    tp = ThermoPoint.from_temperature(couplings, args.temp)
    if args.size is not None:
        if args.size < 3 or args.size % 2 == 0:
            raise UsageError(f"size must be odd and >= 3, got {args.size}")
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
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "tensor",
        "params": {"jx": couplings.jx, "jy": couplings.jy, "jz": couplings.jz, "temp": args.temp},
        "phase": _phase_payload(couplings),
        "index_order": ["beta", "jx", "jy", "jz"],
        "classical": _matrix(tensor.classical),
        "nonclassical": _matrix(tensor.nonclassical),
        "evaluation": evaluation,
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _parse_path(tokens: list[str]) -> tuple[Couplings, Couplings]:
    spec = {}
    for tok in tokens:
        if "=" not in tok:
            raise UsageError(f"path token {tok!r} must look like start=jx,jy,jz")
        key, val = tok.split("=", 1)
        parts = val.split(",")
        if key not in ("start", "end") or len(parts) != 3:
            raise UsageError(f"path token {tok!r} must look like start=jx,jy,jz")
        try:
            spec[key] = Couplings(*(float(p) for p in parts))
        except ValueError as exc:
            raise UsageError(f"invalid path coordinates in {tok!r}: {exc}") from exc
    if set(spec) != {"start", "end"}:
        raise UsageError("path requires both start= and end=")
    return spec["start"], spec["end"]


def cmd_sweep(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kitaev-bures sweep")
    parser.add_argument("--path", nargs=2, metavar=("start=JX,JY,JZ", "end=JX,JY,JZ"))
    parser.add_argument("--steps", type=int, default=21)
    parser.add_argument("--temp", type=str, default="0", help="temperature, or comma list")
    parser.add_argument("--size", type=int, help="odd L; omit for thermodynamic quadrature")
    parser.add_argument("--elements", type=str, help="comma list like jz-jz,beta-beta (default all)")
    _add_grid(parser)
    _add_common(parser)
    args = _parse_with_config(parser, argv)
    if not args.path:
        raise UsageError("missing required --path")
    start, end = _parse_path(args.path)
    if args.steps < 1:
        raise UsageError("steps must be >= 1")
    if args.size is not None and (args.size < 3 or args.size % 2 == 0):
        raise UsageError(f"size must be odd and >= 3, got {args.size}")
    try:
        temps = [float(t) for t in args.temp.split(",")]
    except ValueError as exc:
        raise UsageError(f"invalid temp list {args.temp!r}") from exc
    if args.elements:
        pairs = [_parse_element(tok) for tok in args.elements.split(",")]
        pairs = [(min(a, b), max(a, b)) for a, b in pairs]
    else:
        pairs = list(CLASSICAL_PAIRS)
    params = np.linspace(0.0, 1.0, args.steps) if args.steps > 1 else np.array([0.0])
    elements = []
    for mu, nu in pairs:
        elements.append(("c", mu, nu))
        if mu is not ParameterIndex.BETA:
            elements.append(("nc", mu, nu))
    path = [
        Couplings(
            start.jx + s * (end.jx - start.jx),
            start.jy + s * (end.jy - start.jy),
            start.jz + s * (end.jz - start.jz),
        )
        for s in params
    ]

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
        for s, couplings, by_temp in zip(params, path, tensors):
            tensor = by_temp[t]
            for mu, nu in pairs:
                lines.append(
                    ",".join(
                        [
                            _fmt(s),
                            _fmt(couplings.jx),
                            _fmt(couplings.jy),
                            _fmt(couplings.jz),
                            _fmt(temp),
                            _element_token(mu, nu),
                            _fmt(tensor.element("classical", mu, nu)),
                            _fmt(tensor.element("nonclassical", mu, nu)),
                        ]
                    )
                )
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
    parser = argparse.ArgumentParser(prog="kitaev-bures scaling")
    parser.add_argument("--jx", type=float)
    parser.add_argument("--jy", type=float)
    parser.add_argument("--jz", type=float)
    parser.add_argument("--tmin", type=float)
    parser.add_argument("--tmax", type=float)
    parser.add_argument("--points", type=int, default=10)
    parser.add_argument("--element", type=str, default="nc:jz-jz", help="part:pair, e.g. c:beta-beta")
    parser.add_argument(
        "--model",
        choices=["auto", "gapped-c", "gapped-nc", "log", "power"],
        default="auto",
    )
    _add_grid(parser, tol=1e-7)
    _add_common(parser)
    args = _parse_with_config(parser, argv)
    couplings = _couplings_from(args)
    if args.tmin is None or args.tmax is None:
        raise UsageError("missing required tmin/tmax")
    if not (0 < args.tmin < args.tmax):
        raise UsageError("need 0 < tmin < tmax")
    if args.points < 6:
        raise UsageError("points must be >= 6 for the fits")
    if ":" not in args.element:
        raise UsageError("element must look like part:pair, e.g. nc:jz-jz")
    part, pair_tok = args.element.split(":", 1)
    if part not in ("c", "nc"):
        raise UsageError(f"unknown tensor part {part!r}")
    mu, nu = _parse_element(pair_tok)
    if part == "nc" and ParameterIndex.BETA in (mu, nu):
        raise UsageError("nonclassical elements exist only for coupling pairs")
    region = classify_phase(couplings)
    model = args.model
    if model == "auto":
        if region.is_gapped:
            model = "gapped-c" if part == "c" else "gapped-nc"
        elif region is PhaseRegion.CRITICAL_BOUNDARY:
            model = "power"
        else:
            model = "log"
    grid = _grid_from(args)
    temps = np.geomspace(args.tmin, args.tmax, args.points)
    points = [ThermoPoint.from_temperature(couplings, t) for t in temps]
    part_name = "classical" if part == "c" else "nonclassical"
    elements = [(part, mu, nu)]
    warnings: list[str] = []
    try:
        if model == "gapped-nc":
            gap = fermion_gap(couplings)
            offset = tensor_thermodynamic(
                ThermoPoint.from_temperature(couplings, 0.0), grid, elements=elements
            ).element(part_name, mu, nu)
            corr = [
                t.element("nonclassical", mu, nu)
                for t in nonclassical_corrections(points, grid, elements=elements)
            ]
            samples = np.stack([temps, np.array(corr)], axis=1)
            fit = scaling.fit_gapped_nonclassical(samples, gap, offset)
        else:
            values = np.array([
                t.element(part_name, mu, nu)
                for t in tensors_thermodynamic(points, grid, elements=elements)
            ])
            samples = np.stack([temps, values], axis=1)
            if model == "gapped-c":
                gap = fermion_gap(couplings)
                fit = scaling.fit_gapped_classical(
                    np.stack([temps, np.abs(values)], axis=1), known_gap=gap
                )
                warnings += _transverse_scale_warning(couplings, gap, args.tmax)
            elif model == "log":
                fit = scaling.fit_log_divergence(samples)
            else:
                fit = scaling.fit_power_law(samples)
    except ValueError as exc:
        sys.stderr.write(f"fit failure: {exc}\n")
        return EXIT_FIT
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "scaling",
        "params": {
            "jx": couplings.jx,
            "jy": couplings.jy,
            "jz": couplings.jz,
            "element": args.element,
            "model": model,
            "phase": region.value,
        },
        "samples": [[float(t), float(g)] for t, g in fit.samples],
        "fit": {
            "model": type(fit.model).__name__,
            "params": asdict(fit.model),
            "r_squared": fit.r_squared,
            "warnings": list(fit.warnings) + warnings,
        },
    }
    _write_text(args.out, json.dumps(doc, indent=2) + "\n")
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
    _add_grid(parser, tol=1e-4)
    _add_common(parser)
    args = _parse_with_config(parser, argv)
    try:
        nx, nt = (int(p) for p in args.res.lower().split("x"))
    except ValueError as exc:
        raise UsageError(f"invalid res {args.res!r}, expected NxM") from exc
    if nx < 8 or nt < 8:
        raise UsageError("res must be at least 8 per axis")
    if args.contour is not None and args.out == "-":
        raise UsageError("--contour requires --out FILE (writes sidecar files)")
    if args.synthetic_check:
        jz = np.linspace(args.jz_min, args.jz_max, nx)
        ts = np.geomspace(args.t_min, args.t_max, nt)
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
            (args.jz_min, args.jz_max),
            (args.t_min, args.t_max),
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
        sidecar = {
            "schema_version": SCHEMA_VERSION,
            "command": "ratio-map-contour",
            "level": contour.level,
            "n_points": int(contour.points.shape[0]),
            "exponent": contour.exponent,
            "intercept": contour.intercept,
            "r_squared": contour.r_squared,
            "exponent_below": contour.exponent_below,
            "exponent_above": contour.exponent_above,
        }
        _write_text(base + ".contour.json", json.dumps(sidecar, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# phase


def cmd_phase(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="kitaev-bures phase")
    parser.add_argument("--jx", type=float)
    parser.add_argument("--jy", type=float)
    parser.add_argument("--jz", type=float)
    _add_common(parser)
    args = _parse_with_config(parser, argv)
    couplings = _couplings_from(args)
    region = classify_phase(couplings)
    if region.is_gapped:
        line = f"{region.value} gap={fermion_gap(couplings):.12g}"
    elif region is PhaseRegion.CRITICAL_BOUNDARY:
        line = region.value
    else:
        pts = dirac_points(couplings)
        pts_txt = ",".join(f"({p.px:.12g},{p.py:.12g})" for p in pts)
        line = f"{region.value} dirac=[{pts_txt}]"
    sys.stdout.write(line + "\n")
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
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except QuadratureConvergenceError as exc:
        sys.stderr.write(f"numerical non-convergence: {exc}\n")
        return EXIT_NUMERICS
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
