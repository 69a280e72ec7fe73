"""End-to-end checks of the command-line pipelines.

Each test drives ``lsepkit.cli.main`` in process with a small INI file
so the full config -> pipeline -> file-output path runs in well under a
second per command.
"""

import configparser
import contextlib
import csv
import functools
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import tempfile
import warnings
import zipfile
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

    @pytest.mark.parametrize(
        "text, named",
        [
            # a % is literal, so the value fails as a number
            ("[lorentz]\nlorentz_strength = 5%\n", "lorentz_strength"),
            ("lorentz_strength = 0.3\n", "cfg.ini"),
            ("[lorentz]\nlorentz_strength = 0.3\nlorentz_strength = 0.4\n", "cfg.ini"),
        ],
        ids=["percent", "no-section-header", "duplicate-key"],
    )
    def test_malformed_ini_is_config_error(self, tmp_path, capsys, text, named):
        ini = tmp_path / "cfg.ini"
        ini.write_text(text)
        out = tmp_path / "o"
        assert main(["lorentz", "--config", str(ini), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert named in err[0]
        assert not out.exists()

    def test_unreadable_config_is_config_error(self, tmp_path, capsys, monkeypatch):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "lorentz", lorentz_strength="0.3")

        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "open", denied)
        out = tmp_path / "o"
        assert main(["lorentz", "--config", str(ini), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot read config file {ini}: Permission denied"]
        assert not out.exists()

    def test_percent_in_input_path_is_literal(self, tmp_path, capsys):
        rt_path = tmp_path / "100%.csv"
        rt_path.write_text((files("lsepkit") / "data" / "film_rt.csv").read_text())
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "extract-nk", input=str(rt_path), **EXTRACT_NK_GRID)
        out = tmp_path / "o"
        assert main(["extract-nk", "--config", str(ini), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert (out / "nk.csv").is_file()

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

    @pytest.mark.parametrize(
        "row, fault",
        [("600,1.5,0.1", "reflectance must lie in [0, 1], got 1.5"),
         ("600,0.5,0.6", "R + T = 1.1000 exceeds 1 + 0.02 noise allowance"),
         ("0,0.1,0.8", "wavelength must be finite and > 0, got 0.0")],
    )
    def test_bad_measurement_row_names_file_and_line(self, tmp_path, capsys, row, fault):
        rt_path = tmp_path / "rt.csv"
        rt_path.write_text(f"# comment\nwavelength_nm,R,T\n550,0.1,0.8\n\n{row}\n650,2,0\n")
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "extract-nk", input=str(rt_path))
        out = tmp_path / "o"
        rc = main(["extract-nk", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {rt_path}, line 5: {fault}\n"
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
            # checked although the default quantum model does not use it
            ("qabs-spectrum", "lorentz_strength", "-1"),
            # axes of more than 1e7 samples and grids of more than 1e8 points
            ("lorentz", "energy_step_ev", "1e-9"),
            ("transient", "time_max_fs", "1e12"),
            ("extract-nk", "n_step", "1e-9"),
            ("extract-nk", "kappa_step", "1e-9"),
            # a 400,001 x 400,001 map
            ("nearfield", "grid_half_nm", "1e6"),
            # 41 streamlines of a million steps each
            ("nearfield", "max_steps", "1000000"),
            # each of these ran into a failure that named no key, or ran on
            ("extract-nk", "thickness_min_nm", "1e308"),
            ("extract-nk", "thickness_max_nm", "1e308"),
            ("transient", "pure_dephasing_ev", "1e308"),
            ("qabs-spectrum", "pure_dephasing_ev", "1e308"),
            ("nearfield", "epsilon_override", "1e308, 1e308"),
        ],
    )
    def test_out_of_range_value_is_named(self, tmp_path, capsys, command, key, value):
        self.assert_named_config_error(tmp_path, capsys, command, key, value)

    @pytest.mark.parametrize(
        "command, key",
        [
            ("transient", "transition_energy_ev"),
            ("fit-permittivity", "transition_energy_ev"),
            ("fit-permittivity", "pure_dephasing_ev"),
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

    @pytest.mark.parametrize(
        "command, key, value",
        [
            *(
                (command, "background_permittivity", "1e308")
                for command in ("fit-permittivity", "qabs-spectrum", "nearfield", "transient")
            ),
            ("qabs-spectrum", "dipole_debye", "1e308"),
            ("fit-permittivity", "dipole_debye", "1e308"),
            ("lorentz", "lorentz_strength", "1e308"),
            ("extract-nk", "substrate_index", "1e308"),
            ("extract-nk", "ambient_index", "1e308"),
            ("nearfield", "step_nm", "1e308"),
            ("nearfield", "seed_z_nm", "1e308"),
            ("nearfield", "seed_z_nm", "-1e308"),
            ("transient", "spot_diameter_mm", "1e308"),
        ],
    )
    def test_value_past_its_physical_maximum_is_named(self, tmp_path, capsys, command, key, value):
        # without a maximum, each of these overflows ahead of any later
        # check and exits 3 naming no key
        self.assert_named_config_error(tmp_path, capsys, command, key, value)

    @pytest.mark.parametrize(
        "command, key",
        [
            ("transient", "power_mw"),
            ("nearfield", "seed_y_max_nm"),
            ("qabs-spectrum", "decay_rate_per_s"),
            ("transient", "decay_rate_per_s"),
            ("extract-nk", "kk_asymptote"),
            ("qabs-spectrum", "lorentz_background"),
        ],
    )
    def test_absurd_value_is_named(self, tmp_path, capsys, command, key):
        # without a maximum, the first two exit 2 with a message that
        # names no key and the other four exit 0
        self.assert_named_config_error(tmp_path, capsys, command, key, "1e308")

    def test_too_many_seeds_are_named(self, tmp_path, capsys):
        # 2e7 + 1 seeds, checked before the seed array is built
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "nearfield", seed_y_max_nm="1e6", seed_spacing_nm="0.1")
        out = tmp_path / "o"
        rc = main(["nearfield", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "seed_y_max_nm: asks for 2e+07 samples" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            # 1.01e8 maps, past the key's maximum: unchecked, the run
            # exited 1 with an _ArrayMemoryError traceback
            ("thickness_samples", "1000000"),
            # unchecked, kappa rescaled by 7e-308 left two flat curves, and
            # the run exited 3 with a BranchAmbiguous that named no key
            ("reference_thickness_nm", "1e308"),
        ],
    )
    def test_extract_nk_sweep_past_its_maximum_is_named(self, tmp_path, capsys, key, value):
        self.assert_named_config_error(tmp_path, capsys, "extract-nk", key, value)

    def test_one_thickness_sample_on_a_range_is_config_error(self, tmp_path, capsys):
        # used to sweep 63 and 77 nm, while the map budget counted one
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "extract-nk", thickness_samples="1")
        out = tmp_path / "o"
        rc = main(["extract-nk", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: a thickness range needs at least 2 thickness samples, got 1\n"
        assert not out.exists()

    def test_unwritable_output_directory_is_named(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "x"
        rc = main(["lorentz", "--out", str(out)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and str(out) in err[0]

    @pytest.mark.parametrize(
        "target, existing", [("write_text", False), ("write_text", True), ("replace", False)]
    )
    def test_failure_on_the_second_file_leaves_nothing(
        self, tmp_path, capsys, monkeypatch, target, existing
    ):
        # fit-permittivity writes two files; writing the second one, or
        # moving it into place, fails
        owner = Path if target == "write_text" else cli.os
        original = getattr(owner, target)
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return original(*args, **kwargs)

        out = tmp_path / "a" / "b"
        if existing:
            out.mkdir(parents=True)
        monkeypatch.setattr(owner, target, second_fails)
        rc = main(["fit-permittivity", "--out", str(out)])
        monkeypatch.undo()
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write to {out}: No space left on device"]
        assert len(calls) == 2
        if existing:
            assert list(out.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fail_at", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "present", [(), ("a.csv",), ("a.csv", "b.csv")], ids=["new", "one-old", "two-old"]
    )
    def test_failed_move_leaves_every_target_as_it_was(
        self, tmp_path, monkeypatch, present, fail_at
    ):
        # write_outputs moves each file it replaces aside, then the new
        # file in: 2 + len(present) moves.  The fail_at-th move fails, or
        # none does when fail_at is past the last one.
        out = tmp_path / "a" / "b"
        if present:
            out.mkdir(parents=True)
            (out / "keep.txt").write_text("not an output\n")
            for name in present:
                (out / name).write_text(f"old {name}\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()} if present else None
        original = cli.os.replace
        calls = []

        def fails_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == fail_at:
                raise OSError(28, "No space left on device")
            return original(*args, **kwargs)

        monkeypatch.setattr(cli.os, "replace", fails_once)
        bodies = {"a.csv": "new a\n", "b.csv": "new b\n"}
        moves = 2 + len(present)
        if fail_at > moves:
            assert cli.write_outputs(out, bodies) == [out / "a.csv", out / "b.csv"]
            after = {p.name: p.read_text() for p in out.iterdir()}
            assert after == {**bodies, **({"keep.txt": "not an output\n"} if present else {})}
            assert len(calls) == moves
            return
        with pytest.raises(OSError, match="No space left"):
            cli.write_outputs(out, bodies)
        if present:
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        else:
            assert list(tmp_path.iterdir()) == []

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
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "qabs-spectrum", model="lorentz")
        out = tmp_path / "o"
        rc = main(["qabs-spectrum", "--config", str(ini), "--out", str(out)])
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

    def test_dipole_above_the_cap_is_numerical_failure(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "fit-permittivity", number_density_per_m3="1e-20")
        out = tmp_path / "o"
        rc = main_without_warnings(["fit-permittivity", "--config", str(ini), "--out", str(out)])
        assert rc == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: FitDiverged: ")
        assert not out.exists()


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

    def test_model_key_selects_lorentz(self, tmp_path, capsys):
        path = self.run_coarse(tmp_path, "ql", model="lorentz")
        capsys.readouterr()
        _, rows = read_csv_columns(path)
        data = np.array(rows, dtype=float)
        assert 2.10 <= data[data[:, 3].argmax(), 0] <= 2.20
        assert data[:, 3].max() > 1.0

    def test_model_flag_is_gone(self, tmp_path, capsys):
        # the model is a key of the INI section; argv takes no key
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_info:
            main(["qabs-spectrum", "--model", "lorentz", "--out", str(out)])
        assert exit_info.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --model lorentz" in capsys.readouterr().err
        assert not out.exists()


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

    def test_zero_power_is_the_weak_field_limit(self, tmp_path, capsys):
        q_abs = []
        for power in ("0", "1e-12"):
            ini = tmp_path / f"{power}.ini"
            write_ini(ini, "transient", power_mw=power, detunings_ev="0, 0.09",
                      time_max_fs="60", time_step_fs="2")
            out = tmp_path / power
            assert main(["transient", "--config", str(ini), "--out", str(out)]) == EXIT_OK
            q_abs.append(np.array(read_csv_columns(out / "qabs_t.csv")[1], dtype=float)[:, 2])
        capsys.readouterr()
        # Q_abs at t = 0 is the roundoff of an undoped sphere: compare
        # against the largest value
        assert np.abs(q_abs[0] - q_abs[1]).max() <= 1e-9 * q_abs[1].max()

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


class TestAxes:
    """A span that is no whole number of steps ends on the last sample
    inside it; no sample passes the configured maximum."""

    @pytest.mark.parametrize(
        "command, values, name, column, expected",
        [
            # used to write a 133 eV row, past MAX_ENERGY_EV
            ("lorentz", {"energy_min_ev": "1", "energy_max_ev": "100", "energy_step_ev": "66"},
             "epsilon_lorentz.csv", 0, [1.0, 67.0]),
            # used to write a 500 fs slice
            ("transient", {"detunings_ev": "0", "time_max_fs": "400", "time_step_fs": "250"},
             "qabs_t.csv", 1, [0.0, 250.0]),
            # used to exit 2 on a map corner at 400 nm, past 10 radii; one
            # seed of two steps keeps the run cheap
            ("nearfield", {"grid_half_nm": "300", "grid_step_nm": "350",
                           "seed_y_max_nm": "0", "max_steps": "2"},
             "field_map.csv", 0, [-300.0, 50.0]),
        ],
        ids=["energy", "time", "map"],
    )
    def test_table_axis_stops_at_its_maximum(
        self, tmp_path, capsys, command, values, name, column, expected
    ):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, command, **values)
        out = tmp_path / "out"
        assert main([command, "--config", str(ini), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        _, rows = read_csv_columns(out / name)
        axis = np.unique(np.array(rows, dtype=float)[:, column])
        np.testing.assert_allclose(axis, expected, rtol=1e-12)

    def test_seeds_stop_at_their_maximum(self, tmp_path, capsys):
        # used to place seeds at +-240 nm
        ini = tmp_path / "cfg.ini"
        write_ini(ini, "nearfield", seed_y_max_nm="200", seed_spacing_nm="120",
                  grid_half_nm="100", grid_step_nm="100", max_steps="2")
        out = tmp_path / "out"
        assert main(["nearfield", "--config", str(ini), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        lines = json.loads((out / "streamlines.json").read_text())["lines"]
        assert [ln["seed_nm"][1] for ln in lines] == [-120.0, 0.0, 120.0]


class TestExtractNk:
    @staticmethod
    def synthetic(tmp_path):
        wl = np.linspace(520e-9, 620e-9, 16)
        x = (wl - 570e-9) / 28e-9
        n_true = 2.00 + 0.15 * x
        k_true = 0.60 * np.exp(-(x**2))
        reflectance, transmittance = film.rt_theoretical(
            n_true + 1j * k_true, 70e-9, wl, substrate_index=1.52, ambient_index=1.0
        )
        path = tmp_path / "rt.csv"
        film.write_rt_csv(path, film.RTSpectrum(wl, reflectance, transmittance))
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
        assert all(row[4] == "Unresolved" for row in brows)

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

    def test_measurement_file_without_rows(self, tmp_path, capsys):
        rt_path = tmp_path / "rt.csv"
        film.write_rt_csv(rt_path, film.RTSpectrum([], [], []))
        out = tmp_path / "nk"
        rc = main(["extract-nk", "--config", str(self.config(tmp_path, rt_path)),
                   "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "error: input: measurement file has no rows\n"
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


BAD_VALUES = ["nan", "inf", "-1", "0", "1e308", "1e-9", "", "abc", "%"]
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


# --out values under the run's directory, in which "file" is a regular
# file: a new directory, new nested directories, a path under a file, and
# a name with a space and a percent sign
OUT_PATHS = ["out", "a/b/out", "file/out", "file/a/out", "100% out/out"]


def out_perturbations():
    commands = st.sampled_from(sorted(cli.COMMANDS)).map(lambda command: (command,))
    return st.tuples(st.just("out"), commands, st.sampled_from(OUT_PATHS))


def run_main(argv):
    """main() in process: its exit code and the lines it prints on stderr,
    where a Python warning counts as one line."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    return rc, [str(w.message) for w in caught] + err.getvalue().splitlines()


# cheap base configs for the key sweep: a coarse (n, kappa) grid at one
# thickness, a small map with five seeds of 60 steps, a 50 fs transient
SWEEP_BASE = {
    "extract-nk": {"n_step": "0.05", "kappa_step": "0.05", "thickness_min_nm": "70",
                   "thickness_max_nm": "70", "thickness_samples": "1"},
    "nearfield": {"grid_half_nm": "100", "grid_step_nm": "20", "seed_y_max_nm": "20",
                  "max_steps": "60"},
    "transient": {"time_max_fs": "50"},
}
FLOAT_SWEEP = ["-1e308", "-1", "0", "1e-300", "1e308", "nan", "inf", "word"]
INT_SWEEP = ["-1", "0", "1000000", "1e3", "word"]
# keys that earlier versions read: the fit now starts from dipole_debye and
# pure_dephasing_ev, and an INI that still names one of these exits 2
RETIRED_KEYS = {("fit-permittivity", "initial_dipole_debye"),
                ("fit-permittivity", "initial_pure_dephasing_ev")}


def sweep_cases():
    """One case per numeric or retired key of each command and value of
    its sweep, so that a new key is swept without editing the test."""
    keys = [
        (command, key, spec.kind)
        for command, block in cli.DEFAULTS.items()
        for key, spec in block.items()
        if spec.kind in (float, int, list)
    ]
    return [
        pytest.param(command, key, value, id=f"{command}-{key}-{value}")
        for command, key, kind in keys + [(*site, float) for site in sorted(RETIRED_KEYS)]
        for value in (INT_SWEEP if kind is int else FLOAT_SWEEP)
    ]


def assert_finite_numbers(path):
    """Every number in a written CSV or JSON file is finite."""

    def finite(text):
        value = float(text)
        assert math.isfinite(value), f"{path.name}: {text}"
        return value

    if path.suffix == ".json":
        json.loads(path.read_text(), parse_float=finite, parse_constant=finite)
        return
    for row in csv.reader(path.read_text().splitlines()):
        for cell in row:
            try:
                float(cell)
            except ValueError:
                continue
            finite(cell)


class TestKeySweep:
    """Each numeric key set alone to an extreme, zero, non-finite or
    non-numeric value ends with exit code 0, 2 or 3.  A failure prints one
    stderr line and writes no output directory; a success writes only
    finite numbers.  A retired key is an unknown key, whatever its value."""

    @pytest.mark.parametrize("command, key, value", sweep_cases())
    def test_one_key_ends_cleanly(self, tmp_path, command, key, value):
        ini = tmp_path / "cfg.ini"
        write_ini(ini, command, **{**SWEEP_BASE.get(command, {}), key: value})
        out = tmp_path / "out"
        rc, err = run_main([command, "--config", str(ini), "--out", str(out)])
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
        if (command, key) in RETIRED_KEYS:
            assert rc == EXIT_CONFIG and err == [f"error: [{command}] has unknown key {key!r}"]
        if rc == EXIT_OK:
            assert err == []
            for path in out.iterdir():
                assert_finite_numbers(path)
        else:
            assert len(err) == 1 and err[0].startswith("error: ")
            assert not out.exists()


# cheap base configs on which every numeric key acts: SWEEP_BASE, but the
# default three-thickness sweep, so that thickness_samples acts, and seeds
# 2 nm apart whose lines run out of steps, so that a 10% wider
# seed_y_max_nm adds seeds and max_steps acts
NUDGE_BASE = {
    **SWEEP_BASE,
    "extract-nk": {"n_step": "0.05", "kappa_step": "0.05"},
    "nearfield": {"grid_half_nm": "100", "grid_step_nm": "20", "seed_y_max_nm": "20",
                  "seed_spacing_nm": "2", "max_steps": "10"},
}
# qabs-spectrum's default model, quantum, does not read the Lorentz keys
UNREAD_KEYS = {("qabs-spectrum", key) for key in cli.LORENTZ_KEYS}


def nudged(text, kind):
    """``text`` moved by 10%: each number of a list, zero to 0.1, an empty
    list to (0.1, 0.1), an integer by at least 1."""
    if kind is int:
        return str(int(text) + max(1, int(text) // 10))
    tokens = [tok for tok in text.split(",") if tok.strip()] or ["0", "0"]
    return ", ".join(repr(1.1 * float(tok) if float(tok) else 0.1) for tok in tokens)


def run_outputs(tmp_path, command, values):
    """The exit code of a run in process, and the bytes of each file it wrote."""
    ini = tmp_path / "cfg.ini"
    write_ini(ini, command, **values)
    out = tmp_path / "out"
    rc, _ = run_main([command, "--config", str(ini), "--out", str(out)])
    return rc, {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else {}


@functools.cache
def base_run(command):
    with tempfile.TemporaryDirectory() as tmp:
        return run_outputs(Path(tmp), command, NUDGE_BASE.get(command, {}))


class TestEveryKeyActs:
    """Each numeric key moved alone by 10% from its base value changes the
    exit code or a byte of the output: no key is dead."""

    @pytest.mark.parametrize(
        "command, key",
        [
            pytest.param(command, key, id=f"{command}-{key}")
            for command, block in cli.DEFAULTS.items()
            for key, spec in block.items()
            if spec.kind in (float, int, list) and (command, key) not in UNREAD_KEYS
        ],
    )
    def test_key_changes_the_run(self, tmp_path, command, key):
        base = NUDGE_BASE.get(command, {})
        spec = cli.DEFAULTS[command][key]
        assert base_run(command)[0] == EXIT_OK
        moved = {**base, key: nudged(base.get(key, spec.default), spec.kind)}
        assert run_outputs(tmp_path, command, moved) != base_run(command)


class TestZippedPackage:
    def test_packaged_inputs_are_read_from_a_zip(self, tmp_path):
        # a package imported from a zip has no file path for its data
        archive = tmp_path / "lsepkit.zip"
        package = Path(lsepkit.__file__).parent
        with zipfile.ZipFile(archive, "w") as handle:
            for path in package.rglob("*"):
                if "__pycache__" not in path.parts:
                    handle.write(path, path.relative_to(package.parent))
        for command in ("extract-nk", "fit-permittivity"):
            code = (
                "import sys, lsepkit.cli; assert '.zip' in lsepkit.__file__, lsepkit.__file__; "
                f"sys.exit(lsepkit.cli.main([{command!r}, '--out', {command!r}]))"
            )
            proc = subprocess.run(
                [sys.executable, "-c", code],
                cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": str(archive)},
                capture_output=True,
                text=True,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            assert (tmp_path / command).is_dir()


class TestErrorContract:
    """Any bad value ends with exit code 0, 2 or 3; a failure prints one
    stderr line and writes no output directory."""

    @given(st.one_of(config_perturbations(), cell_perturbations(), out_perturbations()))
    @settings(max_examples=100, deadline=None)
    # an eigensolver failure (NotConverged), a drive energy past its
    # maximum, and an ambient index past its maximum
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
    # an output directory that cannot be made
    @example(("out", ("fit-permittivity",), "file/out"))
    def test_one_bad_value_ends_cleanly(self, perturbation):
        kind, site, value = perturbation
        command = site[0]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            values = dict(EXTRACT_NK_GRID) if command == "extract-nk" else {}
            out = tmp / "out"
            if kind == "config":
                values[site[1]] = value
            elif kind == "out":
                (tmp / "file").write_text("")
                out = tmp / value
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

    def test_eigensolver_failure_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # pure_dephasing_ev = 1e308 made LAPACK fail; it is a config error
        # now, so the failure is forced
        def unconverged(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eig", unconverged)
        out = tmp_path / "o"
        rc = main(["transient", "--out", str(out)])
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
        # the named set makes adding or deleting a class a change here too
        assert {f"{cls.__module__}.{cls.__name__}" for cls in defined} == {
            "lsepkit.aggregate.BadDimension",
            "lsepkit.aggregate.ModeOutOfRange",
            "lsepkit.bloch.DefectiveMatrix",
            "lsepkit.bloch.NoUniqueSteadyState",
            "lsepkit.cli.ConfigError",
            "lsepkit.film.BranchAmbiguous",
            "lsepkit.film.NoMinimumFound",
            "lsepkit.medium.FitDiverged",
            "lsepkit.mie.fields.EvaluationTooFarOut",
            "lsepkit.mie.fields.ZeroPoyntingVector",
            "lsepkit.mie.scatter.RecurrenceUnstable",
            "lsepkit.mie.scatter.SizeParameterOutOfRange",
            "lsepkit.numerics.kk.GridTooCoarse",
            "lsepkit.numerics.periodic.NotConverged",
        }
        for cls in defined:
            assert issubclass(cls, ValueError) != issubclass(cls, NumericalFailure), cls
