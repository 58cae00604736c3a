"""Config and IO tests: parsing errors name lines, canonical text is
idempotent and hash-stable, writers are atomic, every key is read."""

import ast
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from csv_reader import read_csv
from vpfp.errors import ConfigError, DomainError
from vpfp.io_config import (_SCHEMA, OutputLock, RunConfig, canonical_text,
                            config_hash, format_float,
                            parse_config, read_manifest,
                            resolve_out_dir, write_csv, write_manifest)


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# top\n\n nu = 0.01  # trailing\n")
        assert cfg.nu == 0.01

    def test_lists_parse(self):
        cfg = parse_config("nu_list = 1e-4, 1e-3\nk_list = 1,2\n")
        assert cfg.nu_list == (1e-4, 1e-3)
        assert cfg.k_list == (1, 2)

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key `nus`"):
            parse_config("nu = 1e-3\nnus = 1e-4\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key `nu`"):
            parse_config("nu = 1e-3\nnu = 1e-4\n")

    def test_range_violation_names_key(self):
        with pytest.raises(ConfigError, match="`nu` must be"):
            parse_config("nu = -1\n")

    def test_echo_pump_on_the_seed_mode_names_line(self):
        # the echo seed sits on k = -1; a pump on k = 1 would share its pair
        with pytest.raises(ConfigError,
                           match="line 2: `echo_pump_k` must be an integer "
                                 r"in \[2, 64\]"):
            parse_config("nu = 1e-3\necho_pump_k = 1\n")
        assert parse_config("echo_pump_k = 2\n").echo_pump_k == 2

    def test_non_numeric_value_rejected(self):
        with pytest.raises(ConfigError, match="not a valid float"):
            parse_config("nu = fast\n")

    def test_int_key_rejects_float_literal(self):
        with pytest.raises(ConfigError, match="not a valid int"):
            parse_config("norm_m = 2.0\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="line 1.*key = value"):
            parse_config("nu 1e-3\n")

    def test_custom_kernel_requires_table(self):
        with pytest.raises(ConfigError, match="custom kernel needs"):
            parse_config("kernel = custom\n")
        cfg = parse_config("kernel = custom\nkernel_table = 1.0, 0.25\n")
        w = cfg.kernel_object(k_max=2)
        assert w(1) == 1.0 and w(-2) == 0.25

    def test_custom_kernel_shorter_than_band_rejected(self):
        cfg = parse_config("kernel = custom\nkernel_table = 1.0, 0.25\n")
        assert cfg.kernel_object(k_max=1)(1) == 1.0
        with pytest.raises(ConfigError, match="`kernel_table` has 2 entries"):
            cfg.kernel_object(k_max=3)

    def test_custom_kernel_rejects_infinite_weight(self):
        # caught here, on its line, rather than later by the kernel itself
        with pytest.raises(ConfigError, match="line 2: `kernel_table` must be"):
            parse_config("kernel = custom\nkernel_table = inf, 1, 1, 1\n")

    def test_table_without_custom_kernel_rejected(self):
        with pytest.raises(ConfigError, match="only valid with"):
            parse_config("kernel_table = 1.0\n")

    def test_empty_fit_window_rejected(self):
        with pytest.raises(ConfigError, match="fit window is empty"):
            parse_config("fit_t_min = 5\nfit_t_max = 2\n")
        # fit_t_min alone would be ignored in favour of the default window
        with pytest.raises(ConfigError, match="line 1: fit_t_min needs"):
            parse_config("fit_t_min = 50\n")

    @pytest.mark.parametrize("key", [
        "eps_list", "output_stride", "norm_delta", "norm_delta1",
        "norm_sigma", "norm_p", "norm_theta", "norm_m_prime",
        "k_max", "eta_max", "n_eta", "dt", "workers"])
    def test_removed_key_is_unknown(self, key):
        # keys no driver read were dropped from the schema
        with pytest.raises(ConfigError, match=f"line 2: unknown key `{key}`"):
            parse_config(f"nu = 1e-3\n{key} = 1\n")


class TestRunConfigFields:
    def test_every_field_is_read_by_the_package(self):
        # a key that no module reads as an attribute changes nothing; the
        # generic getattr in canonical_text does not count as a reader
        src = Path(__file__).resolve().parents[1] / "src" / "vpfp"
        read = {node.attr for path in src.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)}
        # _SCHEMA has exactly the RunConfig field names
        assert sorted(set(_SCHEMA) - read) == []


class TestCanonicalText:
    def test_round_trip_and_idempotence(self):
        cfg = parse_config("nu = 0.001\nnu_list = 1e-06, 0.001\n"
                           "kernel = screened\nout_dir = runs/a\n")
        text = canonical_text(cfg)
        again = parse_config(text)
        assert again == cfg
        assert canonical_text(again) == text

    def test_keys_sorted_one_per_line(self):
        text = canonical_text(RunConfig())
        keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
        assert keys == sorted(keys)

    def test_hash_changes_iff_canonical_text_changes(self):
        base = RunConfig()
        same = parse_config("nu = 0.001\n")  # the default value, spelled out
        assert canonical_text(base) == canonical_text(same)
        assert config_hash(base) == config_hash(same)
        other = parse_config("nu = 0.002\n")
        assert config_hash(other) != config_hash(base)

    def test_hash_is_sha256_hex(self):
        h = config_hash(RunConfig())
        assert len(h) == 64
        int(h, 16)


class TestWriteCsv:
    def test_float_cells_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(11)
        vals = list(rng.standard_normal(50)) + [1e-300, 1e300, np.pi, 0.1]
        path = tmp_path / "t.csv"
        write_csv([[v] for v in vals], ["x"], path)
        _, rows = read_csv(path)
        got = [r[0] for r in rows]
        assert all(a == b for a, b in zip(got, vals))

    def test_header_and_order(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv([{"b": 2, "a": 1.5}], ["a", "b"], path)
        text = path.read_text()
        assert text.splitlines()[0] == "a,b"
        assert text.splitlines()[1].startswith("1.5")

    def test_schema_mismatch_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="row 0"):
            write_csv([[1, 2, 3]], ["a", "b"], tmp_path / "t.csv")
        with pytest.raises(DomainError, match="do not match schema"):
            write_csv([{"a": 1, "c": 2}], ["a", "b"], tmp_path / "t.csv")

    def test_comma_in_string_cell_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="commas"):
            write_csv([["x,y"]], ["a"], tmp_path / "t.csv")

    def test_no_temp_file_left_behind(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv([[1.0]], ["a"], path)
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_format_float_is_17g(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert float(format_float(np.pi)) == np.pi


class TestManifest:
    def test_write_and_read_back(self, tmp_path):
        cfg = parse_config("nu = 0.01\n")
        path = tmp_path / "manifest.json"
        write_manifest(cfg, {"experiment": "landau", "delta_fit": 0.5}, path)
        doc = read_manifest(path)
        assert doc["config_hash"] == config_hash(cfg)
        assert parse_config(doc["config"]) == cfg
        assert doc["results"]["experiment"] == "landau"

    def test_edited_config_text_rejected(self, tmp_path):
        # the recorded hash is the run identity; a config text that no
        # longer hashes to it would rerun some other config
        path = tmp_path / "manifest.json"
        write_manifest(RunConfig(), {"experiment": "echo"}, path)
        doc = json.loads(path.read_text())
        assert "\nnu = 0.001\n" in doc["config"]
        doc["config"] = doc["config"].replace("\nnu = 0.001\n", "\nnu = 0.002\n")
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(str(path))}: config text hashes"):
            read_manifest(path)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ConfigError, match="not a manifest"):
            read_manifest(path)

    def test_rejects_version_mismatch(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "vpfp-manifest", "version": 99}))
        with pytest.raises(ConfigError, match="version 99"):
            read_manifest(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: list(doc.values()),
        lambda doc: {**doc, "results": []},
        lambda doc: {k: v for k, v in doc.items() if k != "config"},
        lambda doc: {**doc, "config": 5},
    ], ids=["list", "results-list", "no-config", "config-int"])
    def test_malformed_document_is_config_error(self, tmp_path, edit):
        path = tmp_path / "manifest.json"
        write_manifest(RunConfig(), {"experiment": "echo"}, path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            read_manifest(path)


class TestOutputPaths:
    def test_env_override_roots_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VPFP_OUT", str(tmp_path / "root"))
        assert resolve_out_dir("runs/a") == tmp_path / "root" / "runs" / "a"
        absolute = tmp_path / "elsewhere"
        assert resolve_out_dir(absolute) == absolute

    def test_no_env_means_identity(self, monkeypatch):
        monkeypatch.delenv("VPFP_OUT", raising=False)
        assert str(resolve_out_dir("runs/a")) == os.path.join("runs", "a")

    def test_lock_excludes_second_owner(self, tmp_path):
        with OutputLock(tmp_path):
            with pytest.raises(ConfigError, match="locked by another run"):
                OutputLock(tmp_path).acquire()
        # released: can be taken again
        OutputLock(tmp_path).acquire().release()


class TestReadme:
    def test_configuration_keys_section_names_every_key(self):
        # the first column of the README's key table, against the schema
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("\n## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
        rows = [line for line in section.splitlines()
                if line.startswith("|") and not line.startswith("|--")][1:]
        named = [key for row in rows
                 for key in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert rows and set(named) == set(_SCHEMA)
