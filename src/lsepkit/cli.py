"""Command-line front end.

Subcommands run the batch pipelines and write plot-ready CSV/JSON files:
fit the material model to a permittivity target, compute efficiency
spectra, map near fields and trace energy-flow streamlines, run the
switch-on transient, invert film R/T data, and evaluate the classical
single-oscillator comparison.  Configuration is an INI file; every
default can be printed with --dump-defaults so runs are reproducible.

Exit codes: 0 success, 2 configuration or input error (ValueError) or an
unwritable output directory, 3 numerical failure (NumericalFailure, or a
numpy overflow, invalid value or division by zero).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import NumericalFailure, bloch, film, medium
from .constants import ev_to_vacuum_wavelength_m, power_to_field
from .mie import (
    Termination,
    mie_coefficients,
    near_field_grid,
    poynting_streamlines,
    qabs_spectrum,
    qabs_transient,
)
from .mie import SphereScene

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
# Longest energy or time axis a config may ask for: 2e4 times the
# default energy grid.
MAX_SAMPLES = 10**7
# Largest level, photon or linewidth energy a config may name: 100 eV is
# extreme ultraviolet, far above the optical range the models describe.
MAX_ENERGY_EV = 100.0


class ConfigError(ValueError):
    """Invalid or missing configuration value; message names the field."""


MATERIAL_DEFAULTS = {
    "transition_energy_ev": "2.11",
    "decay_rate_per_s": "1.15e12",
    "pure_dephasing_ev": "0.017",
    "dipole_debye": "32.0",
    "number_density_per_m3": "3.29e25",
    "background_permittivity": "2.3104",
}

SPHERE_DEFAULTS = {
    "radius_nm": "50",
    "host_epsilon": "1.0",
}

DEFAULTS: dict[str, dict[str, str]] = {
    "fit-permittivity": {
        **MATERIAL_DEFAULTS,
        # the packaged target is a planar-layer spectrum; pair it with the
        # areal number density so the fitted dipole is the planar value
        "number_density_per_m3": "1.47e25",
        "input": "",  # empty -> packaged target spectrum
        "initial_dipole_debye": "30.0",
        "initial_pure_dephasing_ev": "0.010",
    },
    "qabs-spectrum": {
        **MATERIAL_DEFAULTS,
        **SPHERE_DEFAULTS,
        "model": "quantum",
        "input": "",
        "energy_min_ev": "1.9",
        "energy_max_ev": "2.4",
        "energy_step_ev": "0.001",
        "lorentz_background": "2.3104",
        "lorentz_strength": "0.2505",
        "lorentz_resonance_ev": "2.11",
        "lorentz_damping_ev": "7.569e-4",
    },
    "nearfield": {
        **MATERIAL_DEFAULTS,
        **SPHERE_DEFAULTS,
        "photon_energy_ev": "2.16",
        "epsilon_override": "",
        "grid_half_nm": "300",
        "grid_step_nm": "5",
        "seed_z_nm": "-200",
        "seed_y_max_nm": "200",
        "seed_spacing_nm": "10",
        "step_nm": "10",
        "max_steps": "600",
        "scheme": "euler",
    },
    "transient": {
        **MATERIAL_DEFAULTS,
        **SPHERE_DEFAULTS,
        "power_mw": "1.0",
        "spot_diameter_mm": "1.5",
        "detunings_ev": "0, 0.03, 0.06, 0.09, 0.091",
        "time_max_fs": "400",
        "time_step_fs": "1",
    },
    "extract-nk": {
        "input": "",  # empty -> packaged film fixture
        "substrate_index": "1.52",
        "ambient_index": "1.0",
        "thickness_min_nm": "63",
        "thickness_max_nm": "77",
        "thickness_samples": "3",
        "reference_thickness_nm": "70",
        "n_min": "0.1",
        "n_max": "3.5",
        "n_step": "0.005",
        "kappa_min": "0.0",
        "kappa_max": "3.2",
        "kappa_step": "0.005",
        "kk_asymptote": "1.52",
    },
    "lorentz": {
        "lorentz_background": "2.3104",
        "lorentz_strength": "0.2505",
        "lorentz_resonance_ev": "2.11",
        "lorentz_damping_ev": "7.569e-4",
        "energy_min_ev": "1.9",
        "energy_max_ev": "2.4",
        "energy_step_ev": "0.001",
    },
}


@dataclasses.dataclass
class RunConfig:
    """One command's resolved key-value block plus the output directory."""

    command: str
    values: dict[str, str]
    out_dir: Path

    def _fetch(self, key: str) -> str:
        if key not in self.values:
            raise ConfigError(f"unknown configuration key lookup: {key}")
        return self.values[key]

    def text(self, key: str) -> str:
        return self._fetch(key).strip()

    def real(self, key: str, minimum=None, maximum=None) -> float:
        raw = self._fetch(key)
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: not a number: {raw!r}") from exc
        if not np.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {raw.strip()!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ConfigError(f"{key}: must be <= {maximum}, got {value}")
        return value

    def integer(self, key: str, minimum=None) -> int:
        raw = self._fetch(key)
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: not an integer: {raw!r}") from exc
        if minimum is not None and value < minimum:
            raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
        return value

    def real_list(self, key: str) -> list[float]:
        raw = self._fetch(key)
        try:
            values = [float(tok) for tok in raw.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"{key}: not a comma-separated number list: {raw!r}") from exc
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"{key}: every entry must be finite, got {raw.strip()!r}")
        return values


def load_config(command: str, config_path, out_dir, overrides=None) -> RunConfig:
    values = dict(DEFAULTS[command])
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        parser.read(path)
        if parser.has_section(command):
            for key, value in parser.items(command):
                if key not in values:
                    raise ConfigError(f"[{command}] has unknown key {key!r}")
                values[key] = value
    for key, value in (overrides or {}).items():
        if value is not None:
            values[key] = value
    return RunConfig(command=command, values=values, out_dir=Path(out_dir))


def dump_defaults(command: str) -> str:
    lines = [f"[{command}]"]
    lines += [f"{key} = {value}" for key, value in DEFAULTS[command].items()]
    return "\n".join(lines) + "\n"


def _material(cfg: RunConfig) -> medium.MaterialParams:
    two_level = bloch.TwoLevelParams(
        transition_energy=cfg.real("transition_energy_ev", minimum=1e-6, maximum=MAX_ENERGY_EV),
        decay_rate=cfg.real("decay_rate_per_s", minimum=0.0),
        pure_dephasing=cfg.real("pure_dephasing_ev", minimum=0.0),
        dipole=cfg.real("dipole_debye", minimum=1e-9),
    )
    return medium.MaterialParams(
        number_density=cfg.real("number_density_per_m3", minimum=0.0),
        background_permittivity=cfg.real("background_permittivity", minimum=1.0),
        two_level=two_level,
    )


def _lorentz(cfg: RunConfig) -> medium.LorentzParams:
    return medium.LorentzParams(
        eps_background=cfg.real("lorentz_background", minimum=1.0),
        oscillator_strength=cfg.real("lorentz_strength", minimum=0.0),
        resonance=cfg.real("lorentz_resonance_ev", minimum=1e-6, maximum=MAX_ENERGY_EV),
        damping=cfg.real("lorentz_damping_ev", minimum=1e-9, maximum=MAX_ENERGY_EV),
    )


def _energy_grid(cfg: RunConfig) -> np.ndarray:
    lo = cfg.real("energy_min_ev", minimum=1e-6, maximum=MAX_ENERGY_EV)
    hi = cfg.real("energy_max_ev", maximum=MAX_ENERGY_EV)
    step = cfg.real("energy_step_ev", minimum=1e-9)
    if hi <= lo:
        raise ConfigError(f"energy_max_ev: must exceed energy_min_ev, got {hi} <= {lo}")
    _check_samples((hi - lo) / step + 1.0, "energy_step_ev", "energy_min_ev..energy_max_ev")
    count = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(count)


def _check_samples(count: float, key: str, span: str) -> None:
    """Rejects an axis of more than MAX_SAMPLES samples before it is built."""
    if not count <= MAX_SAMPLES:
        raise ConfigError(
            f"{key}: asks for {count:.3g} samples over {span}, more than {MAX_SAMPLES:.0e}"
        )


def _packaged(name: str) -> Path:
    from importlib.resources import files

    return Path(str(files("lsepkit") / "data" / name))


def _input_path(cfg: RunConfig, fallback: str) -> Path:
    raw = cfg.text("input")
    path = Path(raw) if raw else _packaged(fallback)
    if not path.is_file():
        raise ConfigError(f"input: file not found: {path}")
    return path


class _OutputSet:
    """Collects rendered file bodies, then writes them all atomically."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.pending: list[tuple[str, str]] = []

    def add(self, name: str, body: str) -> None:
        self.pending.append((name, body))

    def commit(self) -> list[Path]:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for name, body in self.pending:
            target = self.out_dir / name
            handle = tempfile.NamedTemporaryFile(
                "w", dir=self.out_dir, prefix=f".{name}.", delete=False
            )
            try:
                with handle:
                    handle.write(body)
                os.replace(handle.name, target)
            except BaseException:
                os.unlink(handle.name)
                raise
            written.append(target)
        return written


def _csv_body(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = [
            cell if isinstance(cell, str) else f"{cell:.17g}"
            for cell in row
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------- subcommands

def cmd_fit_permittivity(cfg: RunConfig) -> _OutputSet:
    target = medium.read_spectrum_csv(_input_path(cfg, "epsilon_extracted.csv"))
    start = _material(cfg)
    report = medium.fit_material(
        target,
        start,
        dipole_init=cfg.real("initial_dipole_debye", minimum=1e-6),
        dephasing_init=cfg.real("initial_pure_dephasing_ev", minimum=0.0, maximum=MAX_ENERGY_EV),
    )
    fitted = report.params
    model = medium.epsilon_steady(fitted, target.energies)
    payload = {
        "dipole_debye": fitted.two_level.dipole,
        "pure_dephasing_ev": fitted.two_level.pure_dephasing,
        "transition_energy_ev": fitted.two_level.transition_energy,
        "decay_rate_per_s": fitted.two_level.decay_rate,
        "number_density_per_m3": fitted.number_density,
        "background_permittivity": fitted.background_permittivity,
        "residual": report.residual,
        "initial_residual": report.initial_residual,
        "n_evaluations": report.n_evaluations,
        "degenerate": report.degenerate,
    }
    out = _OutputSet(cfg.out_dir)
    out.add("fitted_params.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    out.add(
        "epsilon_fit.csv",
        _csv_body(
            ["energy_eV", "eps_real", "eps_imag", "target_real", "target_imag"],
            (
                (e, m.real, m.imag, t.real, t.imag)
                for e, m, t in zip(target.energies, model.epsilon, target.epsilon)
            ),
        ),
    )
    return out


def cmd_qabs_spectrum(cfg: RunConfig) -> _OutputSet:
    model = cfg.text("model")
    energies = _energy_grid(cfg)
    if model == "quantum":
        spectrum = medium.epsilon_steady(_material(cfg), energies)
    elif model == "lorentz":
        spectrum = medium.lorentz_epsilon(_lorentz(cfg), energies)
    elif model == "data":
        spectrum = medium.read_spectrum_csv(_input_path(cfg, "epsilon_extracted.csv"))
    else:
        raise ConfigError(f"model: must be quantum, lorentz, or data, got {model!r}")
    radius = cfg.real("radius_nm", minimum=1e-3) * 1e-9
    host = cfg.real("host_epsilon", minimum=1.0)
    result = qabs_spectrum(spectrum, radius=radius, host_epsilon=host)
    out = _OutputSet(cfg.out_dir)
    out.add(
        "qabs.csv",
        _csv_body(
            ["energy_eV", "Q_ext", "Q_sca", "Q_abs", "kappa_norm"],
            zip(
                result.energies,
                result.q_ext,
                result.q_sca,
                result.q_abs,
                result.kappa_normalized,
            ),
        ),
    )
    return out


def _nearfield_scene(cfg: RunConfig) -> SphereScene:
    energy = cfg.real("photon_energy_ev", minimum=1e-6, maximum=MAX_ENERGY_EV)
    override = cfg.text("epsilon_override")
    if override:
        parts = override.split(",")
        if len(parts) != 2:
            raise ConfigError(f"epsilon_override: expected 're,im', got {override!r}")
        try:
            eps = complex(float(parts[0]), float(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"epsilon_override: {override!r} is not numeric") from exc
        if not np.isfinite(eps):
            raise ConfigError(f"epsilon_override: must be finite, got {override!r}")
    else:
        spectrum = medium.epsilon_steady(_material(cfg), np.array([energy]))
        raw = spectrum.epsilon[0]
        eps = complex(raw.real, max(raw.imag, 0.0))
    return SphereScene(
        radius=cfg.real("radius_nm", minimum=1e-3) * 1e-9,
        sphere_epsilon=eps,
        host_epsilon=cfg.real("host_epsilon", minimum=1.0),
        wavelength_vacuum=ev_to_vacuum_wavelength_m(energy),
    )


def cmd_nearfield(cfg: RunConfig) -> _OutputSet:
    scene = _nearfield_scene(cfg)
    coeffs = mie_coefficients(scene)

    half = cfg.real("grid_half_nm", minimum=1.0)
    step = cfg.real("grid_step_nm", minimum=0.1)
    _check_samples((2.0 * half / step + 1.0) ** 2, "grid_half_nm", "the grid_step_nm map")
    axis = np.arange(-half, half + 0.5 * step, step) * 1e-9
    yy, zz = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([np.zeros_like(yy), yy, zz], axis=-1).reshape(-1, 3)
    # the exact center is undefined; sample a hair off instead
    centered = np.linalg.norm(pts, axis=1) < 1e-12
    pts[centered] = [0.0, 0.0, 1e-12]
    grid = near_field_grid(scene, coeffs, pts)
    enh = grid.enhancement.reshape(yy.shape)

    seed_z = cfg.real("seed_z_nm") * 1e-9
    seed_max = cfg.real("seed_y_max_nm", minimum=0.0) * 1e-9
    spacing = cfg.real("seed_spacing_nm", minimum=0.1) * 1e-9
    n_side = int(round(seed_max / spacing))
    seed_y = spacing * np.arange(-n_side, n_side + 1)
    seeds = np.stack(
        [np.zeros_like(seed_y), seed_y, np.full_like(seed_y, seed_z)], axis=1
    )
    scheme = cfg.text("scheme")
    if scheme not in ("euler", "midpoint"):
        raise ConfigError(f"scheme: must be euler or midpoint, got {scheme!r}")
    lines = poynting_streamlines(
        scene,
        coeffs,
        seeds,
        step=cfg.real("step_nm", minimum=0.1) * 1e-9,
        max_steps=cfg.integer("max_steps", minimum=1),
        scheme=scheme,
    )

    out = _OutputSet(cfg.out_dir)
    rows = (
        (axis[i] * 1e9, axis[j] * 1e9, enh[i, j])
        for i in range(axis.size)
        for j in range(axis.size)
    )
    out.add("field_map.csv", _csv_body(["y_nm", "z_nm", "enhancement"], rows))
    payload = [
        {
            "seed_nm": [round(v * 1e9, 9) for v in ln.seed],
            "terminated": ln.terminated.value,
            "points_nm": [[round(v * 1e9, 9) for v in p] for p in ln.points],
        }
        for ln in lines
    ]
    captured = sum(ln.terminated is Termination.ABSORBED for ln in lines)
    body = json.dumps(
        {"captured_count": captured, "lines": payload}, indent=1, sort_keys=True
    )
    out.add("streamlines.json", body + "\n")
    return out


def cmd_transient(cfg: RunConfig) -> _OutputSet:
    material = _material(cfg)
    amplitude = power_to_field(
        cfg.real("power_mw", minimum=0.0) * 1e-3,
        cfg.real("spot_diameter_mm", minimum=1e-6) * 1e-3,
    )
    radius = cfg.real("radius_nm", minimum=1e-3) * 1e-9
    host = cfg.real("host_epsilon", minimum=1.0)
    t_max = cfg.real("time_max_fs", minimum=1.0) * 1e-15
    t_step = cfg.real("time_step_fs", minimum=1e-3) * 1e-15
    _check_samples(t_max / t_step + 1.0, "time_step_fs", "0..time_max_fs")
    times = np.arange(0.0, t_max + 0.5 * t_step, t_step)
    detunings = cfg.real_list("detunings_ev")
    if not detunings:
        raise ConfigError("detunings_ev: list is empty")

    transition = material.two_level.transition_energy
    rows = []
    for detuning in detunings:
        photon = transition + detuning
        if not 0.0 < photon <= MAX_ENERGY_EV:
            raise ConfigError(
                f"detunings_ev: drive energy {photon} eV is not in (0, {MAX_ENERGY_EV}]"
            )
        drive = bloch.DriveField(amplitude=amplitude, photon_energy=photon)
        spectrum = medium.epsilon_transient(material, drive, times)
        result = qabs_transient(spectrum, radius=radius, host_epsilon=host)
        for t_s, q in zip(times, result.q_abs):
            rows.append((detuning, t_s * 1e15, q))
    out = _OutputSet(cfg.out_dir)
    out.add("qabs_t.csv", _csv_body(["detuning_eV", "time_fs", "Q_abs"], rows))
    return out


def cmd_extract_nk(cfg: RunConfig) -> _OutputSet:
    measurements = film.read_rt_csv(_input_path(cfg, "film_rt.csv"))
    if not measurements:
        raise ConfigError("input: measurement file has no rows")
    t_lo = cfg.real("thickness_min_nm", minimum=1.0) * 1e-9
    t_hi = cfg.real("thickness_max_nm", minimum=1.0) * 1e-9
    t_ref = cfg.real("reference_thickness_nm", minimum=1.0) * 1e-9
    grid = film.NkGrid(
        n_min=cfg.real("n_min"),
        n_max=cfg.real("n_max"),
        n_step=cfg.real("n_step"),
        kappa_min=cfg.real("kappa_min"),
        kappa_max=cfg.real("kappa_max"),
        kappa_step=cfg.real("kappa_step"),
    )
    candidates = film.extract_nk(
        measurements,
        thickness_range=(t_lo, t_hi),
        grid=grid,
        n_thickness=cfg.integer("thickness_samples", minimum=1),
        substrate_index=cfg.real("substrate_index", minimum=1.0),
        ambient_index=cfg.real("ambient_index", minimum=1.0),
    )

    # branch selection runs on candidates sharing one thickness; rescale
    # each sweep member onto the reference thickness first
    nearest = min(
        {c.thickness_used for c in candidates}, key=lambda t: abs(t - t_ref)
    )
    reference_pool = [
        dataclasses.replace(
            c, kappa=film.thickness_rescale(c.kappa, c.thickness_used, t_ref)
        )
        for c in candidates
        if c.thickness_used == nearest
    ]
    selection = film.select_physical_branch(reference_pool)
    # ascending-energy arrays for the dispersion closure
    from .constants import vacuum_wavelength_m_to_ev

    energy_vals = np.array(
        [vacuum_wavelength_m_to_ev(c.wavelength) for c in selection.physical]
    )
    kappa_vals = np.array([c.kappa for c in selection.physical])
    asc = np.argsort(energy_vals)
    curve = film.close_with_kk(
        energy_vals[asc], kappa_vals[asc], cfg.real("kk_asymptote", minimum=0.0)
    )
    n_by_energy = dict(zip(curve.energies, curve.n))

    out = _OutputSet(cfg.out_dir)
    nk_rows = []
    for cand in sorted(selection.physical, key=lambda c: c.wavelength):
        e_val = vacuum_wavelength_m_to_ev(cand.wavelength)
        nk_rows.append(
            (
                cand.wavelength * 1e9,
                e_val,
                n_by_energy[e_val],
                cand.kappa,
                cand.branch.value,
                cand.residual,
            )
        )
    out.add(
        "nk.csv",
        _csv_body(
            ["wavelength_nm", "energy_eV", "n", "kappa", "branch", "residual"],
            nk_rows,
        ),
    )
    branch_rows = (
        (
            c.wavelength * 1e9,
            vacuum_wavelength_m_to_ev(c.wavelength),
            c.n,
            c.kappa,
            c.branch.value,
            c.residual,
            c.thickness_used * 1e9,
        )
        for c in sorted(
            candidates, key=lambda c: (c.thickness_used, c.wavelength, c.kappa)
        )
    )
    out.add(
        "branches.csv",
        _csv_body(
            [
                "wavelength_nm",
                "energy_eV",
                "n",
                "kappa",
                "branch",
                "residual",
                "thickness_nm",
            ],
            branch_rows,
        ),
    )
    return out


def cmd_lorentz(cfg: RunConfig) -> _OutputSet:
    spectrum = medium.lorentz_epsilon(_lorentz(cfg), _energy_grid(cfg))
    out = _OutputSet(cfg.out_dir)
    out.add(
        "epsilon_lorentz.csv",
        _csv_body(
            ["energy_eV", "eps_real", "eps_imag"],
            ((e, v.real, v.imag) for e, v in zip(spectrum.energies, spectrum.epsilon)),
        ),
    )
    return out


COMMANDS = {
    "fit-permittivity": cmd_fit_permittivity,
    "qabs-spectrum": cmd_qabs_spectrum,
    "nearfield": cmd_nearfield,
    "transient": cmd_transient,
    "extract-nk": cmd_extract_nk,
    "lorentz": cmd_lorentz,
}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lsepkit",
        description="Batch pipelines for sphere optics, switch-on dynamics, "
        "and film optical-constant extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=f"run the {name} pipeline")
        cmd.add_argument("--config", default=None, help="INI file with a [%s] section" % name)
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument(
            "--dump-defaults",
            action="store_true",
            help="print the default configuration block and exit",
        )
        if name == "qabs-spectrum":
            cmd.add_argument(
                "--model",
                choices=["quantum", "lorentz", "data"],
                default=None,
                help="permittivity source for the spectrum",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.dump_defaults:
        sys.stdout.write(dump_defaults(args.command))
        return EXIT_OK
    overrides = {}
    if getattr(args, "model", None) is not None:
        overrides["model"] = args.model
    try:
        # a numpy overflow, invalid value or division by zero is a
        # numerical failure, not a warning ahead of invalid output
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cfg = load_config(args.command, args.config, args.out, overrides)
            output = COMMANDS[args.command](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        written = output.commit()
    except OSError as exc:
        print(f"error: cannot write to {cfg.out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
