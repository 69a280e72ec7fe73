"""Command-line front end.

Subcommands run the batch pipelines and write plot-ready CSV/JSON files:
fit the material model to a permittivity target, compute efficiency
spectra, map near fields and trace energy-flow streamlines, run the
switch-on transient, invert film R/T data, and evaluate the classical
single-oscillator comparison.  Configuration is an INI file; every
default can be printed with --dump-defaults so runs are reproducible.

DEFAULTS declares each command's keys once, each with its default, kind
and range.  load_config checks the whole block when it loads it, keys
the command will not use included, and the commands read typed values
(``cfg["radius_nm"]``).  A command without an input file reads the
packaged one through importlib.resources, so a zipped package works too.
Commands return their files' text, each table rendered by lsepkit.table
from the whole columns the command computed, and write_outputs stages
them inside the output directory before moving them into place.

Exit codes: 0 success, 2 configuration or input error (ValueError, a
malformed or unreadable INI file) or an unwritable output directory,
3 numerical failure (NumericalFailure, or a numpy overflow, invalid
value or division by zero).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import shutil
import sys
import tempfile
from itertools import takewhile
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import NumericalFailure, bloch, film, medium, table
from .constants import ev_to_vacuum_wavelength_m, power_to_field, vacuum_wavelength_m_to_ev
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
# Largest extract-nk sweep, as maps (thickness samples x R/T rows) times
# (n, kappa) grid points, a map counted as at least 1e5 points: the grid
# search keeps bookkeeping per map that grows with the grid.  76 times the
# default sweep of 303 maps of 436,521 points.
MAX_MAP_POINTS = 10**10
# Thickest film extract-nk inverts, 1 um: the key's maximum converts to
# film.MAX_THICKNESS, so a thickness the keys accept extract_nk accepts.
MAX_THICKNESS_NM = 1e3
# Largest level, photon or linewidth energy a config may name: 100 eV is
# extreme ultraviolet, far above the optical range the models describe.
MAX_ENERGY_EV = 100.0
# Largest background or Lorentz-strength permittivity a config may name,
# and the largest refractive index: far above any dielectric host.
MAX_PERMITTIVITY = 1e4
MAX_INDEX = 100.0
# Largest streamline length a config may name, 1 mm: far outside the
# near-zone domain of any sphere the Mie layer supports.
MAX_LENGTH_NM = 1e6
# Largest excited-state decay rate, 1e16 1/s: a lifetime of 0.1 fs,
# shorter than one optical cycle.
MAX_DECAY_RATE = 1e16
# Largest drive power, 1 kW: far above any continuous-wave probe.
MAX_POWER_MW = 1e6


class ConfigError(ValueError):
    """Invalid or missing configuration value; message names the field."""


class Key(NamedTuple):
    """One config key: its default text, its kind (float, int, list of
    floats, str, or a tuple of the allowed words) and its closed range."""

    default: str
    kind: type | tuple[str, ...] = float
    minimum: float = -math.inf
    maximum: float = math.inf


MATERIAL_KEYS = {
    "transition_energy_ev": Key("2.11", float, 1e-6, MAX_ENERGY_EV),
    "decay_rate_per_s": Key("1.15e12", float, 0.0, MAX_DECAY_RATE),
    "pure_dephasing_ev": Key("0.017", float, 0.0, MAX_ENERGY_EV),
    "dipole_debye": Key("32.0", float, 1e-9, medium.MAX_DIPOLE_DEBYE),
    "number_density_per_m3": Key("3.29e25", float, 0.0),
    "background_permittivity": Key("2.3104", float, 1.0, MAX_PERMITTIVITY),
}

SPHERE_KEYS = {
    "radius_nm": Key("50", float, 1e-3),
    "host_epsilon": Key("1.0", float, 1.0),
}

ENERGY_GRID_KEYS = {
    "energy_min_ev": Key("1.9", float, 1e-6, MAX_ENERGY_EV),
    "energy_max_ev": Key("2.4", float, maximum=MAX_ENERGY_EV),
    "energy_step_ev": Key("0.001", float, 1e-9),
}

LORENTZ_KEYS = {
    "lorentz_background": Key("2.3104", float, 1.0, MAX_PERMITTIVITY),
    "lorentz_strength": Key("0.2505", float, 0.0, MAX_PERMITTIVITY),
    "lorentz_resonance_ev": Key("2.11", float, 1e-6, MAX_ENERGY_EV),
    "lorentz_damping_ev": Key("7.569e-4", float, 1e-9, MAX_ENERGY_EV),
}

DEFAULTS: dict[str, dict[str, Key]] = {
    "fit-permittivity": {
        **MATERIAL_KEYS,
        # the packaged target is a planar-layer spectrum; pair it with the
        # areal number density so the fitted dipole is the planar value
        "number_density_per_m3": MATERIAL_KEYS["number_density_per_m3"]._replace(
            default="1.47e25"
        ),
        "input": Key("", str),  # empty -> packaged target spectrum
        "initial_dipole_debye": Key("30.0", float, 1e-6, medium.MAX_DIPOLE_DEBYE),
        "initial_pure_dephasing_ev": Key("0.010", float, 0.0, MAX_ENERGY_EV),
    },
    "qabs-spectrum": {
        **MATERIAL_KEYS,
        **SPHERE_KEYS,
        "model": Key("quantum", ("quantum", "lorentz", "data")),
        "input": Key("", str),
        **ENERGY_GRID_KEYS,
        **LORENTZ_KEYS,
    },
    "nearfield": {
        **MATERIAL_KEYS,
        **SPHERE_KEYS,
        "photon_energy_ev": Key("2.16", float, 1e-6, MAX_ENERGY_EV),
        "epsilon_override": Key("", list, -MAX_PERMITTIVITY, MAX_PERMITTIVITY),  # or "re, im"
        "grid_half_nm": Key("300", float, 1.0),
        "grid_step_nm": Key("5", float, 0.1),
        "seed_z_nm": Key("-200", float, -MAX_LENGTH_NM, MAX_LENGTH_NM),
        "seed_y_max_nm": Key("200", float, 0.0, MAX_LENGTH_NM),
        "seed_spacing_nm": Key("10", float, 0.1),
        "step_nm": Key("10", float, 0.1, MAX_LENGTH_NM),
        "max_steps": Key("600", int, 1),
        "scheme": Key("euler", ("euler", "midpoint")),
    },
    "transient": {
        **MATERIAL_KEYS,
        **SPHERE_KEYS,
        "power_mw": Key("1.0", float, 0.0, MAX_POWER_MW),
        # a spot wider than a metre is no longer a focused beam
        "spot_diameter_mm": Key("1.5", float, 1e-6, 1e3),
        "detunings_ev": Key("0, 0.03, 0.06, 0.09, 0.091", list),
        "time_max_fs": Key("400", float, 1.0),
        "time_step_fs": Key("1", float, 1e-3),
    },
    "extract-nk": {
        "input": Key("", str),  # empty -> packaged film fixture
        "substrate_index": Key("1.52", float, 1.0, MAX_INDEX),
        "ambient_index": Key("1.0", float, 1.0, MAX_INDEX),
        "thickness_min_nm": Key("63", float, 1.0, MAX_THICKNESS_NM),
        "thickness_max_nm": Key("77", float, 1.0, MAX_THICKNESS_NM),
        "thickness_samples": Key("3", int, 1),
        "reference_thickness_nm": Key("70", float, 1.0, MAX_THICKNESS_NM),
        "n_min": Key("0.1"),
        "n_max": Key("3.5"),
        "n_step": Key("0.005"),
        "kappa_min": Key("0.0"),
        "kappa_max": Key("3.2"),
        "kappa_step": Key("0.005"),
        "kk_asymptote": Key("1.52", float, 0.0, MAX_INDEX),
    },
    "lorentz": {**LORENTZ_KEYS, **ENERGY_GRID_KEYS},
}


class RunConfig(dict):
    """One command's checked, typed key values, and where it writes."""

    def __init__(self, values: dict[str, object], out_dir):
        super().__init__(values)
        self.out_dir = Path(out_dir)


def _parse(key: str, spec: Key, raw: str):
    """The typed value of one key, checked against its kind and range."""
    text = raw.strip()
    if spec.kind is str:
        return text
    if isinstance(spec.kind, tuple):
        if text not in spec.kind:
            raise ConfigError(f"{key}: must be one of {', '.join(spec.kind)}, got {text!r}")
        return text
    tokens = [tok for tok in text.split(",") if tok.strip()] if spec.kind is list else [text]
    try:
        values = [(int if spec.kind is int else float)(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    for value in values:
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {text!r}")
        if value < spec.minimum:
            raise ConfigError(f"{key}: must be >= {spec.minimum}, got {value}")
        if value > spec.maximum:
            raise ConfigError(f"{key}: must be <= {spec.maximum}, got {value}")
    return values if spec.kind is list else values[0]


def load_config(command: str, config_path, out_dir, overrides=None) -> RunConfig:
    """Defaults, then the INI section, then overrides; every key checked."""
    keys = DEFAULTS[command]
    raw = {key: spec.default for key, spec in keys.items()}
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        # no interpolation: a % in a value, such as an input path, is literal
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with path.open(encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
        except (configparser.Error, UnicodeError) as exc:
            raise ConfigError(f"malformed config file {path}: {' '.join(str(exc).split())}")
        for key, value in parser.items(command) if parser.has_section(command) else ():
            if key not in keys:
                raise ConfigError(f"[{command}] has unknown key {key!r}")
            raw[key] = value
    raw.update((key, value) for key, value in (overrides or {}).items() if value is not None)
    return RunConfig({key: _parse(key, keys[key], text) for key, text in raw.items()}, out_dir)


def dump_defaults(command: str) -> str:
    lines = [f"[{command}]"]
    lines += [f"{key} = {spec.default}" for key, spec in DEFAULTS[command].items()]
    return "\n".join(lines) + "\n"


def _material(cfg: RunConfig) -> medium.MaterialParams:
    two_level = bloch.TwoLevelParams(
        transition_energy=cfg["transition_energy_ev"],
        decay_rate=cfg["decay_rate_per_s"],
        pure_dephasing=cfg["pure_dephasing_ev"],
        dipole=cfg["dipole_debye"],
    )
    return medium.MaterialParams(
        number_density=cfg["number_density_per_m3"],
        background_permittivity=cfg["background_permittivity"],
        two_level=two_level,
    )


def _lorentz(cfg: RunConfig) -> medium.LorentzParams:
    return medium.LorentzParams(
        eps_background=cfg["lorentz_background"],
        oscillator_strength=cfg["lorentz_strength"],
        resonance=cfg["lorentz_resonance_ev"],
        damping=cfg["lorentz_damping_ev"],
    )


def _energy_grid(cfg: RunConfig) -> np.ndarray:
    lo = cfg["energy_min_ev"]
    hi = cfg["energy_max_ev"]
    if hi <= lo:
        raise ConfigError(f"energy_max_ev: must exceed energy_min_ev, got {hi} <= {lo}")
    return _axis(lo, hi, cfg["energy_step_ev"], "energy_step_ev", "energy_min_ev..energy_max_ev")


def _check_samples(count: float, key: str, span: str) -> None:
    """Rejects an axis of more than MAX_SAMPLES samples before it is built."""
    if not count <= MAX_SAMPLES:
        raise ConfigError(
            f"{key}: asks for {count:.3g} samples over {span}, more than {MAX_SAMPLES:.0e}"
        )


def _axis(lo, hi, step, key: str, span: str, *, origin=None, square=False) -> np.ndarray:
    """The samples origin + i step (origin defaults to lo) that lie in [lo, hi].

    Their count, squared for a square map of the axis, is checked before
    the axis is built.  A span within a millionth of a step of a whole
    number of steps keeps its end sample, moved onto the end: no sample
    lies outside [lo, hi].
    """
    count = (hi - lo) / step + 1.0
    _check_samples(count * count if square else count, key, span)
    origin = lo if origin is None else origin
    first = math.ceil((lo - origin) / step - 1e-6)
    last = math.floor((hi - origin) / step + 1e-6)
    return np.clip(origin + step * np.arange(first, last + 1), lo, hi)


def _packaged(name: str):
    """A packaged data file, as an importlib.resources Traversable."""
    from importlib.resources import files

    return files("lsepkit") / "data" / name


def _read_input(cfg: RunConfig, fallback: str, read):
    """``read`` of the input file, or of the packaged ``fallback`` through a
    real path (a temporary copy when the package is imported from a zip)."""
    from contextlib import nullcontext
    from importlib.resources import as_file

    raw = cfg["input"]
    with nullcontext(Path(raw)) if raw else as_file(_packaged(fallback)) as path:
        if not path.is_file():
            raise ConfigError(f"input: file not found: {path}")
        return read(path)


def write_outputs(out_dir: Path, bodies: dict[str, str]) -> list[Path]:
    """Writes every body into a stage inside out_dir, then moves the files
    into place, each file it replaces into the stage first.  On a failure
    every target is left as it was: the replaced files move back, the
    added files, the stage and every directory this call created go."""
    target = out_dir.resolve()
    created = list(takewhile(lambda d: not d.exists(), (target, *target.parents)))
    try:
        target.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(dir=target, prefix=".stage-"))
        try:
            for name, body in bodies.items():
                (stage / name).write_text(body, encoding="utf-8")
            replaced = Path(tempfile.mkdtemp(dir=stage))
            moved = []
            try:
                for name in bodies:
                    moved.append(name)
                    if (target / name).is_file() or (target / name).is_symlink():
                        os.replace(target / name, replaced / name)
                    os.replace(stage / name, target / name)
            except BaseException:
                for name in moved:
                    if os.path.lexists(replaced / name):
                        os.replace(replaced / name, target / name)
                    elif not os.path.lexists(stage / name):
                        os.remove(target / name)
                raise
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except BaseException:
        if created:
            shutil.rmtree(created[-1], ignore_errors=True)
        raise
    return [out_dir / name for name in bodies]


NK_HEADER = ["wavelength_nm", "energy_eV", "n", "kappa", "branch", "residual", "thickness_nm"]


def _nk_columns(candidates: film.NkCandidates, label: str) -> list:
    """The NK_HEADER columns of a candidate table, every row labelled."""
    wl = candidates.wavelength
    return [
        wl * 1e9, vacuum_wavelength_m_to_ev(wl), candidates.n, candidates.kappa,
        [label] * wl.size, candidates.residual, candidates.thickness * 1e9,
    ]


# ----------------------------------------------------------- subcommands

def cmd_fit_permittivity(cfg: RunConfig) -> dict[str, str]:
    target = _read_input(cfg, "epsilon_extracted.csv", medium.read_spectrum_csv)
    start = _material(cfg)
    report = medium.fit_material(
        target,
        start,
        dipole_init=cfg["initial_dipole_debye"],
        dephasing_init=cfg["initial_pure_dephasing_ev"],
    )
    fitted = report.params
    eps = medium.epsilon_steady(fitted, target.energies).epsilon
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
    return {
        "fitted_params.json": json.dumps(payload, indent=2, sort_keys=True) + "\n",
        "epsilon_fit.csv": table.render(
            ["energy_eV", "eps_real", "eps_imag", "target_real", "target_imag"],
            [target.energies, eps.real, eps.imag, target.epsilon.real, target.epsilon.imag],
        ),
    }


def cmd_qabs_spectrum(cfg: RunConfig) -> dict[str, str]:
    model = cfg["model"]
    energies = _energy_grid(cfg)
    if model == "quantum":
        spectrum = medium.epsilon_steady(_material(cfg), energies)
    elif model == "lorentz":
        spectrum = medium.lorentz_epsilon(_lorentz(cfg), energies)
    else:
        spectrum = _read_input(cfg, "epsilon_extracted.csv", medium.read_spectrum_csv)
    radius = cfg["radius_nm"] * 1e-9
    host = cfg["host_epsilon"]
    result = qabs_spectrum(spectrum, radius=radius, host_epsilon=host)
    return {
        "qabs.csv": table.render(
            ["energy_eV", "Q_ext", "Q_sca", "Q_abs", "kappa_norm"],
            [result.energies, result.q_ext, result.q_sca, result.q_abs, result.kappa_normalized],
        ),
    }


def _nearfield_scene(cfg: RunConfig) -> SphereScene:
    energy = cfg["photon_energy_ev"]
    override = cfg["epsilon_override"]
    if override:
        if len(override) != 2:
            raise ConfigError(f"epsilon_override: expected 're,im', got {len(override)} numbers")
        eps = complex(*override)
    else:
        spectrum = medium.epsilon_steady(_material(cfg), np.array([energy]))
        raw = spectrum.epsilon[0]
        eps = complex(raw.real, max(raw.imag, 0.0))
    return SphereScene(
        radius=cfg["radius_nm"] * 1e-9,
        sphere_epsilon=eps,
        host_epsilon=cfg["host_epsilon"],
        wavelength_vacuum=ev_to_vacuum_wavelength_m(energy),
    )


def cmd_nearfield(cfg: RunConfig) -> dict[str, str]:
    scene = _nearfield_scene(cfg)
    coeffs = mie_coefficients(scene)

    seed_z = cfg["seed_z_nm"] * 1e-9
    seed_max = cfg["seed_y_max_nm"] * 1e-9
    seed_y = _axis(-seed_max, seed_max, cfg["seed_spacing_nm"] * 1e-9, "seed_y_max_nm",
                   "the seed_spacing_nm seeds", origin=0.0)
    # the tracer keeps one point per seed and step
    _check_samples(seed_y.size * cfg["max_steps"], "max_steps", f"{seed_y.size} streamlines")
    seeds = np.stack(
        [np.zeros_like(seed_y), seed_y, np.full_like(seed_y, seed_z)], axis=1
    )

    half = cfg["grid_half_nm"]
    axis = _axis(-half, half, cfg["grid_step_nm"], "grid_half_nm", "the grid_step_nm map",
                 square=True) * 1e-9
    yy, zz = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([np.zeros_like(yy), yy, zz], axis=-1).reshape(-1, 3)
    grid = near_field_grid(scene, coeffs, pts)

    lines = poynting_streamlines(
        scene,
        coeffs,
        seeds,
        step=cfg["step_nm"] * 1e-9,
        max_steps=cfg["max_steps"],
        scheme=cfg["scheme"],
    )

    payload = [
        {
            "seed_nm": np.round(ln.seed * 1e9, 9).tolist(),
            "terminated": ln.terminated.value,
            "points_nm": np.round(ln.points * 1e9, 9).tolist(),
        }
        for ln in lines
    ]
    captured = sum(ln.terminated is Termination.ABSORBED for ln in lines)
    body = json.dumps(
        {"captured_count": captured, "lines": payload}, indent=1, sort_keys=True
    )
    return {
        "field_map.csv": table.render(
            ["y_nm", "z_nm", "enhancement"], [yy.ravel() * 1e9, zz.ravel() * 1e9, grid.enhancement]
        ),
        "streamlines.json": body + "\n",
    }


def cmd_transient(cfg: RunConfig) -> dict[str, str]:
    material = _material(cfg)
    amplitude = power_to_field(
        cfg["power_mw"] * 1e-3,
        cfg["spot_diameter_mm"] * 1e-3,
    )
    radius = cfg["radius_nm"] * 1e-9
    host = cfg["host_epsilon"]
    times = _axis(0.0, cfg["time_max_fs"] * 1e-15, cfg["time_step_fs"] * 1e-15,
                  "time_step_fs", "0..time_max_fs")
    detunings = cfg["detunings_ev"]
    if not detunings:
        raise ConfigError("detunings_ev: list is empty")

    transition = material.two_level.transition_energy
    q_abs = []
    for detuning in detunings:
        photon = transition + detuning
        if not 0.0 < photon <= MAX_ENERGY_EV:
            raise ConfigError(
                f"detunings_ev: drive energy {photon} eV is not in (0, {MAX_ENERGY_EV}]"
            )
        drive = bloch.DriveField(amplitude=amplitude, photon_energy=photon)
        spectrum = medium.epsilon_transient(material, drive, times)
        q_abs.append(qabs_transient(spectrum, radius=radius, host_epsilon=host).q_abs)
    time_fs = np.tile(times * 1e15, len(detunings))
    columns = [np.repeat(detunings, times.size), time_fs, np.concatenate(q_abs)]
    return {"qabs_t.csv": table.render(["detuning_eV", "time_fs", "Q_abs"], columns)}


def cmd_extract_nk(cfg: RunConfig) -> dict[str, str]:
    spectrum = _read_input(cfg, "film_rt.csv", film.read_rt_csv)
    if not spectrum.wavelength.size:
        raise ConfigError("input: measurement file has no rows")
    t_lo = cfg["thickness_min_nm"] * 1e-9
    t_hi = cfg["thickness_max_nm"] * 1e-9
    t_ref = cfg["reference_thickness_nm"] * 1e-9
    grid = film.NkGrid(
        n_min=cfg["n_min"],
        n_max=cfg["n_max"],
        n_step=cfg["n_step"],
        kappa_min=cfg["kappa_min"],
        kappa_max=cfg["kappa_max"],
        kappa_step=cfg["kappa_step"],
    )
    maps = cfg["thickness_samples"] * spectrum.wavelength.size
    work = maps * max(grid.n_values.size * grid.kappa_values.size, 10**5)
    if not work <= MAX_MAP_POINTS:
        raise ConfigError(
            f"thickness_samples: asks for {maps} maps (thickness samples x R/T rows), "
            f"{work:.3g} map points, more than {MAX_MAP_POINTS:.0e}"
        )
    candidates = film.extract_nk(
        spectrum,
        thickness_range=(t_lo, t_hi),
        grid=grid,
        n_thickness=cfg["thickness_samples"],
        substrate_index=cfg["substrate_index"],
        ambient_index=cfg["ambient_index"],
    )

    # branch selection runs on candidates sharing one thickness: the swept
    # thickness nearest the reference (the thinner one on an exact tie, as
    # the sweep ascends), with kappa rescaled onto the reference thickness
    swept = candidates.thickness
    nearest = swept[np.argmin(np.abs(swept - t_ref))]
    pool = candidates.take(swept == nearest)
    pool = pool._replace(kappa=film.thickness_rescale(pool.kappa, nearest, t_ref))
    nk = _nk_columns(pool.take(film.select_physical_branch(pool)), "Physical")
    # the physical curve ascends in wavelength, so the dispersion closure
    # takes its energies (column 1) and kappa (column 3) reversed
    nk[2] = film.close_with_kk(nk[1][::-1], nk[3][::-1], cfg["kk_asymptote"])[::-1]
    order = np.lexsort((candidates.kappa, candidates.wavelength, swept))
    return {
        "nk.csv": table.render(NK_HEADER[:-1], nk[:-1]),
        "branches.csv": table.render(
            NK_HEADER, _nk_columns(candidates.take(order), "Unresolved")
        ),
    }


def cmd_lorentz(cfg: RunConfig) -> dict[str, str]:
    spectrum = medium.lorentz_epsilon(_lorentz(cfg), _energy_grid(cfg))
    return {
        "epsilon_lorentz.csv": table.render(
            ["energy_eV", "eps_real", "eps_imag"],
            [spectrum.energies, spectrum.epsilon.real, spectrum.epsilon.imag],
        ),
    }


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
                choices=DEFAULTS[name]["model"].kind,
                default=None,
                help="permittivity source for the spectrum",
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.dump_defaults:
        sys.stdout.write(dump_defaults(args.command))
        return EXIT_OK
    try:
        # a numpy overflow, invalid value or division by zero is a
        # numerical failure, not a warning ahead of invalid output
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            cfg = load_config(
                args.command, args.config, args.out, {"model": getattr(args, "model", None)}
            )
            bodies = COMMANDS[args.command](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, ArithmeticError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        written = write_outputs(cfg.out_dir, bodies)
    except OSError as exc:
        print(f"error: cannot write to {cfg.out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
