"""Command-line contract: subcommands, exit codes, output routing."""

import pytest

from vpfp.cli import build_parser, main
from vpfp.errors import NumericError
from vpfp.io_config import OutputLock

# the cheapest config that exercises a full driver end to end
ECHO_CFG = "nu_list = 1e-3\nt_final = 10.0\necho_eta_star = 4.0\n"


def write_cfg(tmp_path, text=ECHO_CFG):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestParser:
    def test_lists_every_campaign(self):
        text = build_parser().format_help()
        for kind in ("dissipation", "landau", "echo", "threshold",
                     "thermalize"):
            assert kind in text

    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_requires_config_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["echo"])


class TestMain:
    def test_success_writes_outputs_and_returns_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "results"
        assert main(["echo", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        assert (out / "manifest.json").exists()
        assert (out / "echo_peaks.csv").exists()
        assert str(out) in capsys.readouterr().out
        # the lock is released on the way out
        assert not (out / "lock").exists()

    def test_missing_config_file_is_exit_2(self, tmp_path, capsys):
        code = main(["echo", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config_is_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "not_a_key = 1\n")
        code = main(["echo", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "not_a_key" in capsys.readouterr().err

    def test_numeric_failure_is_exit_3(self, tmp_path, capsys, monkeypatch):
        def boom(kind, config, out_dir):
            raise NumericError("synthetic numerical failure")
        monkeypatch.setattr("vpfp.cli.run_experiment", boom)
        cfg = write_cfg(tmp_path)
        code = main(["echo", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        assert "synthetic" in capsys.readouterr().err

    def test_locked_directory_is_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        out = tmp_path / "busy"
        lock = OutputLock(out).acquire()
        try:
            code = main(["echo", "--config", cfg, "--out", str(out)])
        finally:
            lock.release()
        assert code == 2
        assert "locked" in capsys.readouterr().err

    def test_unwritable_out_is_exit_2(self, tmp_path, capsys):
        # a path under a regular file can be neither locked nor written
        cfg = write_cfg(tmp_path)
        blocker = tmp_path / "plain_file"
        blocker.write_text("")
        code = main(["echo", "--config", cfg, "--out", str(blocker / "sub")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_relative_out_honors_env_root(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setenv("VPFP_OUT", str(tmp_path))
        cfg = write_cfg(tmp_path)
        assert main(["echo", "--config", cfg, "--out", "nested/run"]) == 0
        assert (tmp_path / "nested" / "run" / "summary.json").exists()

    def test_default_out_comes_from_config(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setenv("VPFP_OUT", str(tmp_path))
        cfg = write_cfg(tmp_path, ECHO_CFG + "out_dir = from_key\n")
        assert main(["echo", "--config", cfg]) == 0
        assert (tmp_path / "from_key" / "summary.json").exists()

    def test_run_failure_reports_no_echo_but_succeeds(self, tmp_path):
        # a detector that finds nothing is a reported outcome, not an error
        cfg = write_cfg(tmp_path,
                        "nu_list = 1e-3\nt_final = 6.0\n"
                        "echo_eta_star = 40.0\n")
        out = tmp_path / "none"
        assert main(["echo", "--config", cfg, "--out", str(out)]) == 0
        peaks = (out / "echo_peaks.csv").read_text()
        assert "no echo" in peaks
        assert "nan" in peaks
