"""The runtime needs numpy only: scipy is a test oracle, never imported by
the package.  Each check runs in a fresh interpreter, so modules the test
suite has already loaded cannot hide an import."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import lsepkit

SRC = Path(lsepkit.__file__).resolve().parent.parent


def run_python(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_import_loads_no_scipy(tmp_path):
    done = run_python(
        """
        import sys
        import lsepkit.cli
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """,
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # a coarse grid keeps extract-nk on the packaged fixture fast
    (tmp_path / "coarse.ini").write_text(
        "[extract-nk]\nn_step = 0.02\nkappa_step = 0.02\n"
    )
    done = run_python(
        """
        import sys
        sys.modules["scipy"] = None  # any scipy import now raises ImportError
        from lsepkit import cli

        for command in sorted(cli.COMMANDS):
            argv = [command, "--out", command]
            if command == "extract-nk":
                argv += ["--config", "coarse.ini"]
            code = cli.main(argv)
            assert code == cli.EXIT_OK, (command, code)
        """,
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    written = {Path(line).parent.name for line in done.stdout.split()}
    assert written == {
        "extract-nk", "fit-permittivity", "lorentz", "nearfield", "qabs-spectrum", "transient"
    }
