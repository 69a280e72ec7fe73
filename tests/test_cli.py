"""End-to-end checks of the command-line pipelines.

Each test drives ``lsepkit.cli.main`` in process with a small INI file
so the full config -> pipeline -> file-output path runs in well under a
second per command.
"""

import configparser
import contextlib
import csv
import importlib
import inspect
import io
import json
import pkgutil
import tempfile
import warnings
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lsepkit
from lsepkit import NumericalFailure, cli, film
from lsepkit.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from lsepkit.mie import RecurrenceUnstable


def write_ini(path, section, **values):
    lines = [f"[{section}]"] + [f"{key} = {value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n")


def main_without_warnings(argv):
    """main() with numpy RuntimeWarnings raised: outside the tests such a
    warning prints extra stderr lines ahead of the one-line error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main(argv)


def read_csv_columns(path):
    with open(path, newline="") as handle:
        rows = [r for r in csv.reader(handle) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


class TestDumpDefaults:
    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_block_is_parseable_and_complete(self, command, capsys):
        assert main([command, "--dump-defaults"]) == EXIT_OK
        text = capsys.readouterr().out
        parser = configparser.ConfigParser()
        parser.read_string(text)
        assert set(parser[command]) == set(cli.DEFAULTS[command])


class TestConfigErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(
            ["lorentz", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")]
        )
        assert rc == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "lorentz", typo_key="1.0")
        rc = main(["lorentz", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "typo_key" in capsys.readouterr().err

    def test_unrelated_section_is_ignored(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "extract-nk", thickness_samples="1")
        out = tmp_path / "o"
        assert main(["lorentz", "--config", str(ini), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert (out / "epsilon_lorentz.csv").is_file()

    def test_bad_grid_bounds_leave_no_output(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "extract-nk", n_min="3.0", n_max="2.0")
        out = tmp_path / "o"
        rc = main(["extract-nk", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_non_finite_wavelength_leaves_no_output(self, tmp_path, capsys):
        rt_path = tmp_path / "rt.csv"
        rt_path.write_text("wavelength_nm,R,T\n550,0.1,0.8\nnan,0.1,0.8\n600,0.1,0.8\n")
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "extract-nk", input=str(rt_path))
        out = tmp_path / "o"
        rc = main(["extract-nk", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "wavelength" in err
        assert f"{rt_path}, line 3:" in err
        assert not out.exists()

    def test_non_numeric_cell_names_file_and_line(self, tmp_path, capsys):
        rt_path = tmp_path / "rt.csv"
        rt_path.write_text("wavelength_nm,R,T\n# comment\n550,0.1,0.8\n600,high,0.8\n")
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "extract-nk", input=str(rt_path))
        out = tmp_path / "o"
        rc = main(["extract-nk", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{rt_path}, line 4:" in err
        assert "'high'" in err
        assert not out.exists()

    def test_nan_spectrum_cell_names_file_and_line(self, tmp_path, capsys):
        lines = (files("lsepkit") / "data" / "epsilon_extracted.csv").read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line[:1].isdigit()) + 3
        energy, _, imag = lines[row].split(",")
        lines[row] = f"{energy},nan,{imag}"
        eps_path = tmp_path / "eps.csv"
        eps_path.write_text("\n".join(lines) + "\n")
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "qabs-spectrum", model="data", input=str(eps_path))
        out = tmp_path / "o"
        rc = main(["qabs-spectrum", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{eps_path}, line {row + 1}:" in err
        assert "finite" in err
        assert not out.exists()

    def test_zero_energy_row_is_named(self, tmp_path, capsys):
        lines = (files("lsepkit") / "data" / "epsilon_extracted.csv").read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line[:1].isdigit())
        lines[row] = "0.0," + lines[row].split(",", 1)[1]
        eps_path = tmp_path / "eps.csv"
        eps_path.write_text("\n".join(lines) + "\n")
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "qabs-spectrum", model="data", input=str(eps_path))
        out = tmp_path / "o"
        rc = main_without_warnings(["qabs-spectrum", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "photon energy must be > 0, got 0.0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["qabs-spectrum", "transient"])
    def test_overflowing_number_density_is_named(self, tmp_path, capsys, command):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, command, number_density_per_m3="1e308")
        out = tmp_path / "o"
        rc = main_without_warnings([command, "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "number_density 1e+308 overflows" in err
        assert not out.exists()

    @pytest.mark.parametrize("n_min", ["-1.0", "0"])
    def test_non_positive_n_min_is_config_error(self, tmp_path, capsys, n_min):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "extract-nk", n_min=n_min)
        out = tmp_path / "o"
        rc = main(["extract-nk", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "n_min" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("transient", "detunings_ev", "0, inf"),
            ("lorentz", "lorentz_resonance_ev", "nan"),
            ("nearfield", "epsilon_override", "nan,0.1"),
            # the values MaterialParams, LorentzParams and SphereScene take
            ("fit-permittivity", "number_density_per_m3", "nan"),
            ("qabs-spectrum", "background_permittivity", "inf"),
            ("qabs-spectrum", "host_epsilon", "inf"),
            ("nearfield", "radius_nm", "nan"),
        ],
    )
    def test_non_finite_value_is_config_error(self, tmp_path, capsys, command, key, value):
        self.assert_named_config_error(tmp_path, capsys, command, key, value)

    @pytest.mark.parametrize(
        "command, key, value",
        [
            # zero damping puts the Lorentz pole on the real energy axis
            ("lorentz", "lorentz_damping_ev", "0"),
            # axes of more than 1e7 samples and grids of more than 1e8 points
            ("lorentz", "energy_step_ev", "1e-9"),
            ("transient", "time_max_fs", "1e12"),
            ("extract-nk", "n_step", "1e-9"),
            ("extract-nk", "kappa_step", "1e-9"),
            # a 400,001 x 400,001 map
            ("nearfield", "grid_half_nm", "1e6"),
        ],
    )
    def test_out_of_range_value_is_named(self, tmp_path, capsys, command, key, value):
        self.assert_named_config_error(tmp_path, capsys, command, key, value)

    @pytest.mark.parametrize(
        "command, key",
        [
            ("transient", "transition_energy_ev"),
            ("fit-permittivity", "transition_energy_ev"),
            ("fit-permittivity", "initial_pure_dephasing_ev"),
            ("nearfield", "photon_energy_ev"),
            ("lorentz", "lorentz_resonance_ev"),
            ("lorentz", "lorentz_damping_ev"),
            ("qabs-spectrum", "energy_max_ev"),
            ("transient", "detunings_ev"),
        ],
    )
    def test_energy_above_its_maximum_is_named(self, tmp_path, capsys, command, key):
        # each of these overflowed past its input checks and exited 3
        # with a FloatingPointError or NotConverged that named no key
        self.assert_named_config_error(tmp_path, capsys, command, key, "1e308")

    def test_unwritable_output_directory_is_named(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x"
        rc = main(["lorentz", "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and str(out) in err[0]

    @staticmethod
    def assert_named_config_error(tmp_path, capsys, command, key, value):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, command, **{key: value})
        out = tmp_path / "o"
        rc = main([command, "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value, text",
        [
            # size parameter 193, past the supported 100
            ("qabs-spectrum", "radius_nm", "20000", "size parameter"),
            # the grid corners lie past 10 sphere radii
            ("nearfield", "grid_half_nm", "400", "radii"),
        ],
    )
    def test_mie_domain_error_is_config_error(self, tmp_path, capsys, command, key, value, text):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, command, **{key: value})
        out = tmp_path / "o"
        rc = main([command, "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert text in err
        assert not out.exists()

    def test_unstable_recurrence_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def unstable(*args, **kwargs):
            raise RecurrenceUnstable("forced for the exit-code contract")

        monkeypatch.setattr(cli, "qabs_spectrum", unstable)
        out = tmp_path / "o"
        rc = main(["qabs-spectrum", "--model", "lorentz", "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "RecurrenceUnstable" in err
        assert not out.exists()

    def test_missing_input_file(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "extract-nk", input=str(tmp_path / "absent.csv"))
        rc = main(["extract-nk", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    def test_bad_model_value(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "qabs-spectrum", model="weird")
        rc = main(["qabs-spectrum", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG


class TestFitPermittivity:
    def test_recovers_generator_of_packaged_target(self, tmp_path, capsys):
        out = tmp_path / "fit"
        assert main(["fit-permittivity", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        payload = json.loads((out / "fitted_params.json").read_text())
        assert abs(payload["dipole_debye"] - 48.0) < 1e-2
        assert abs(payload["pure_dephasing_ev"] - 0.017) < 1e-5
        assert payload["residual"] < 1e-8
        header, rows = read_csv_columns(out / "epsilon_fit.csv")
        assert header[:3] == ["energy_eV", "eps_real", "eps_imag"]
        assert len(rows) == 251


class TestQabsSpectrum:
    def run_coarse(self, tmp_path, out_name, model="quantum"):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "qabs-spectrum", model=model, energy_step_ev="0.005")
        out = tmp_path / out_name
        rc = main(["qabs-spectrum", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_OK
        return out / "qabs.csv"

    def test_peaks_land_on_expected_energies(self, tmp_path, capsys):
        path = self.run_coarse(tmp_path, "q1")
        capsys.readouterr()
        header, rows = read_csv_columns(path)
        assert header == ["energy_eV", "Q_ext", "Q_sca", "Q_abs", "kappa_norm"]
        data = np.array(rows, dtype=float)
        energies, q_abs, kappa = data[:, 0], data[:, 3], data[:, 4]
        assert abs(energies[q_abs.argmax()] - 2.16) <= 0.01
        assert q_abs.max() > 1.0
        assert abs(energies[kappa.argmax()] - 2.12) <= 0.01
        assert abs(kappa.max() - 1.0) < 1e-12

    def test_runs_are_deterministic(self, tmp_path, capsys):
        a = self.run_coarse(tmp_path, "qa")
        b = self.run_coarse(tmp_path, "qb")
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_model_flag_overrides_config(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "qabs-spectrum", energy_step_ev="0.005")
        out = tmp_path / "ql"
        rc = main(
            [
                "qabs-spectrum",
                "--config",
                str(ini),
                "--out",
                str(out),
                "--model",
                "lorentz",
            ]
        )
        assert rc == EXIT_OK
        capsys.readouterr()
        _, rows = read_csv_columns(out / "qabs.csv")
        data = np.array(rows, dtype=float)
        assert 2.10 <= data[data[:, 3].argmax(), 0] <= 2.20
        assert data[:, 3].max() > 1.0


class TestLorentzCommand:
    def test_absorption_peaks_at_resonance(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "lorentz", energy_step_ev="0.002")
        out = tmp_path / "lor"
        assert main(["lorentz", "--config", str(ini), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        _, rows = read_csv_columns(out / "epsilon_lorentz.csv")
        data = np.array(rows, dtype=float)
        assert abs(data[data[:, 2].argmax(), 0] - 2.11) <= 0.002


class TestTransient:
    def test_pulsed_drive_overshoots_steady_absorption(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        write_ini(
            ini,
            "transient",
            detunings_ev="0.09",
            time_max_fs="60",
            time_step_fs="2",
        )
        out = tmp_path / "tr"
        assert main(["transient", "--config", str(ini), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        header, rows = read_csv_columns(out / "qabs_t.csv")
        assert header == ["detuning_eV", "time_fs", "Q_abs"]
        data = np.array(rows, dtype=float)
        assert np.allclose(data[:, 0], 0.09)
        assert data.shape[0] == 31
        peak = data[data[:, 2].argmax()]
        assert peak[2] > 1.0
        assert 5.0 < peak[1] < 50.0

    def test_empty_detuning_list_is_config_error(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "transient", detunings_ev="")
        rc = main(["transient", "--config", str(ini), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG


class TestNearfield:
    def test_small_scene_outputs(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        write_ini(
            ini,
            "nearfield",
            grid_half_nm="100",
            grid_step_nm="25",
            seed_y_max_nm="40",
            seed_spacing_nm="40",
            max_steps="150",
        )
        out = tmp_path / "nf"
        assert main(["nearfield", "--config", str(ini), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()

        header, rows = read_csv_columns(out / "field_map.csv")
        assert header == ["y_nm", "z_nm", "enhancement"]
        assert len(rows) == 9 * 9
        data = np.array(rows, dtype=float)
        assert np.all(data[:, 2] > 0.0)
        assert np.all(np.isfinite(data[:, 2]))

        payload = json.loads((out / "streamlines.json").read_text())
        lines = payload["lines"]
        assert len(lines) == 3
        labels = {ln["terminated"] for ln in lines}
        assert labels <= {"EnteredSphereAndAbsorbed", "LeftDomain", "MaxSteps"}
        captured = sum(
            ln["terminated"] == "EnteredSphereAndAbsorbed" for ln in lines
        )
        assert payload["captured_count"] == captured
        # near-axis seeds all sit inside the capture cross-section
        assert captured == 3
        for ln in lines:
            pts = np.asarray(ln["points_nm"])
            assert np.all(np.linalg.norm(pts, axis=1) <= 510.0)

        leftovers = [p.name for p in out.iterdir() if p.name.startswith(".")]
        assert leftovers == []


class TestExtractNk:
    @staticmethod
    def synthetic(tmp_path):
        wl = np.linspace(520e-9, 620e-9, 16)
        x = (wl - 570e-9) / 28e-9
        n_true = 2.00 + 0.15 * x
        k_true = 0.60 * np.exp(-(x**2))
        meas = []
        for w, n, k in zip(wl, n_true, k_true):
            stack = film.FilmStack(
                thickness=70e-9,
                film_index=complex(n, k),
                substrate_index=1.52,
                ambient_index=1.0,
            )
            rt = film.rt_theoretical(stack, w)
            meas.append(film.RTMeasurement(w, rt.reflectance, rt.transmittance))
        path = tmp_path / "rt.csv"
        film.write_rt_csv(path, meas)
        return path, wl, n_true, k_true

    def config(self, tmp_path, rt_path, **extra):
        ini = tmp_path / "cfg.ini"
        write_ini(
            ini,
            "extract-nk",
            input=str(rt_path),
            thickness_min_nm="70",
            thickness_max_nm="70",
            thickness_samples="1",
            reference_thickness_nm="70",
            n_min="1.2",
            n_max="2.6",
            n_step="0.02",
            kappa_min="0.0",
            kappa_max="1.0",
            kappa_step="0.02",
            **extra,
        )
        return ini

    def test_round_trip_through_cli(self, tmp_path, capsys):
        rt_path, wl, n_true, k_true = self.synthetic(tmp_path)
        ini = self.config(tmp_path, rt_path)
        out = tmp_path / "nk"
        rc = main(["extract-nk", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()

        header, rows = read_csv_columns(out / "nk.csv")
        assert header == [
            "wavelength_nm",
            "energy_eV",
            "n",
            "kappa",
            "branch",
            "residual",
        ]
        assert len(rows) == wl.size
        for row, k in zip(rows, k_true):
            assert row[4] == "Physical"
            assert abs(float(row[3]) - k) < 1e-5
            assert float(row[5]) < 1e-10
            assert float(row[2]) > 1.0  # dispersion-closed index stays physical

        bheader, brows = read_csv_columns(out / "branches.csv")
        assert bheader[-1] == "thickness_nm"
        assert len(brows) == 2 * wl.size

    def test_non_finite_kk_asymptote_is_config_error(self, tmp_path, capsys):
        rt_path, *_ = self.synthetic(tmp_path)
        ini = self.config(tmp_path, rt_path, kk_asymptote="nan")
        out = tmp_path / "nk"
        rc = main(["extract-nk", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "kk_asymptote" in err
        assert not out.exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        rt_path, *_ = self.synthetic(tmp_path)
        ini = self.config(tmp_path, rt_path)

        def ambiguous(*args, **kwargs):
            raise film.BranchAmbiguous("forced for the exit-code contract")

        monkeypatch.setattr(cli.film, "select_physical_branch", ambiguous)
        out = tmp_path / "nk"
        rc = main(["extract-nk", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        assert "BranchAmbiguous" in capsys.readouterr().err
        assert not out.exists()


BAD_VALUES = ["nan", "inf", "-1", "0", "1e308", "1e-9", "", "abc"]
# the packaged input each command reads, and the config that selects it
CSV_INPUTS = {
    "fit-permittivity": ("epsilon_extracted.csv", {}),
    "qabs-spectrum": ("epsilon_extracted.csv", {"model": "data"}),
    "extract-nk": ("film_rt.csv", {}),
}
# a coarse grid keeps each extract-nk run near 0.1 s
EXTRACT_NK_GRID = {"n_step": "0.02", "kappa_step": "0.02"}


def data_rows(name):
    lines = (files("lsepkit") / "data" / name).read_text().splitlines()
    return lines, [i for i, line in enumerate(lines) if line[:1].isdigit()]


def config_perturbations():
    sites = [
        (command, key)
        for command, block in cli.DEFAULTS.items()
        for key in block
        if key not in ("input", "model", "scheme")
    ]
    return st.tuples(st.just("config"), st.sampled_from(sites), st.sampled_from(BAD_VALUES))


def cell_perturbations():
    def cells(command):
        rows = len(data_rows(CSV_INPUTS[command][0])[1])
        return st.tuples(st.just(command), st.integers(0, rows - 1), st.integers(0, 2))

    return st.tuples(
        st.just("cell"),
        st.sampled_from(sorted(CSV_INPUTS)).flatmap(cells),
        st.sampled_from(BAD_VALUES),
    )


def run_main(argv):
    """main() in process: its exit code and the lines it prints on stderr,
    where a Python warning counts as one line."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    return rc, [str(w.message) for w in caught] + err.getvalue().splitlines()


class TestErrorContract:
    """Any bad value ends with exit code 0, 2 or 3; a failure prints one
    stderr line and writes no output directory."""

    @given(st.one_of(config_perturbations(), cell_perturbations()))
    @settings(max_examples=100, deadline=None)
    # an eigensolver failure (NotConverged), and residual maps without a
    # finite value
    @example(("config", ("transient", "pure_dephasing_ev"), "1e308"))
    @example(("config", ("transient", "detunings_ev"), "1e308"))
    @example(("config", ("extract-nk", "ambient_index"), "1e308"))
    # numpy overflows that leave finite but invalid output
    @example(("config", ("lorentz", "lorentz_damping_ev"), "1e308"))
    @example(("config", ("extract-nk", "substrate_index"), "1e308"))
    # numpy overflows ahead of an input check
    @example(("cell", ("qabs-spectrum", 250, 0), "1e308"))
    # a pole on the real energy axis, and tiny steps that ask for more
    # samples or grid points than fit in memory
    @example(("config", ("lorentz", "lorentz_damping_ev"), "0"))
    @example(("config", ("qabs-spectrum", "energy_step_ev"), "1e-9"))
    @example(("config", ("extract-nk", "kappa_step"), "1e-9"))
    def test_one_bad_value_ends_cleanly(self, perturbation):
        kind, site, value = perturbation
        command = site[0]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            values = dict(EXTRACT_NK_GRID) if command == "extract-nk" else {}
            if kind == "config":
                values[site[1]] = value
            else:
                _, row, col = site
                name, selector = CSV_INPUTS[command]
                lines, rows = data_rows(name)
                cells = lines[rows[row]].split(",")
                cells[col] = value
                lines[rows[row]] = ",".join(cells)
                (tmp / name).write_text("\n".join(lines) + "\n")
                values.update(selector, input=str(tmp / name))
            ini = tmp / "cfg.ini"
            write_ini(ini, command, **values)
            out = tmp / "out"
            rc, err = run_main([command, "--config", str(ini), "--out", str(out)])
            assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
            if rc == EXIT_OK:
                assert err == []
            else:
                assert len(err) == 1
                assert not out.exists()

    def test_too_few_wavelengths_for_the_dispersion_closure(self, tmp_path, capsys):
        lines, rows = data_rows("film_rt.csv")
        rt_path = tmp_path / "rt.csv"
        rt_path.write_text("\n".join(lines[: rows[12]]) + "\n")
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "extract-nk", input=str(rt_path), **EXTRACT_NK_GRID)
        out = tmp_path / "o"
        rc = main(["extract-nk", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "error: need at least 16 points, got 12\n"
        assert not out.exists()

    def test_eigensolver_failure_is_numerical_failure(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "transient", pure_dephasing_ev="1e308")
        out = tmp_path / "o"
        rc = main(["transient", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: NotConverged: ")
        assert not out.exists()

    def test_every_exception_declares_its_exit_code(self):
        # ValueError exits with code 2 and NumericalFailure with code 3;
        # a class that is neither, or both, would break the contract
        defined = {
            cls
            for info in pkgutil.walk_packages(lsepkit.__path__, "lsepkit.")
            for _, cls in inspect.getmembers(importlib.import_module(info.name), inspect.isclass)
            if issubclass(cls, Exception)
            and cls.__module__.startswith("lsepkit.")
            and cls is not NumericalFailure
        }
        assert len(defined) >= 17
        for cls in defined:
            assert issubclass(cls, ValueError) != issubclass(cls, NumericalFailure), cls
