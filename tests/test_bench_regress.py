"""Bench artifacts and the CI regression gate (benchmarks/regress.py)."""

import json
import pathlib
import sys

import pytest

from repro.analysis.benchfile import (
    BENCH_SCHEMA,
    bench_artifact,
    config_hash,
    load_bench_artifact,
    write_bench_artifact,
)
from repro.system.config import tiny_config
from repro.system.system import run_config

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import regress  # noqa: E402  (benchmarks/regress.py)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    # Bench runs always carry blame ledgers (repro bench does the same)
    # so the artifact includes the gated ckpt_blame_p99_share metric,
    # and attach the probe-backed companion metrics (knee, warm-replica
    # RTO) — fixed stand-ins here, since the real sweeps are
    # benchmark-scale work.
    result = run_config(tiny_config(blame=True))
    bench = {"mode": "checkin", "workload": "A", "threads": 4,
             "queries": 1_500, "distribution": "zipfian"}
    art = bench_artifact(result, bench, stamp="20260101T000000Z",
                         extra_metrics={"knee_sustainable_ops": 48_000.0,
                                        "rto_warm_replica_ns": 550_000.0})
    path = tmp_path_factory.mktemp("bench") / "BENCH_base.json"
    write_bench_artifact(str(path), art)
    return path


class TestArtifact:
    def test_schema_and_required_fields(self, artifact):
        art = load_bench_artifact(str(artifact))
        assert art["schema"] == BENCH_SCHEMA
        assert set(regress.TOLERANCES) <= set(art["metrics"])
        assert art["config_hash"] == config_hash(art["bench"])
        assert art["commit"]  # "unknown" at worst, never empty

    def test_config_hash_is_order_insensitive(self):
        a = config_hash({"mode": "checkin", "threads": 8})
        b = config_hash({"threads": 8, "mode": "checkin"})
        assert a == b
        assert a != config_hash({"mode": "checkin", "threads": 16})

    def test_loader_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other/v9"}))
        with pytest.raises(ValueError):
            load_bench_artifact(str(bad))


def mutate(artifact_path, tmp_path, **metric_scales):
    art = json.loads(pathlib.Path(artifact_path).read_text())
    for metric, scale in metric_scales.items():
        art["metrics"][metric] *= scale
    out = tmp_path / "BENCH_current.json"
    out.write_text(json.dumps(art))
    return out


class TestGate:
    def test_identical_artifact_passes(self, artifact, capsys):
        assert regress.main([str(artifact),
                             "--baseline", str(artifact)]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_injected_throughput_regression_fails(self, artifact,
                                                  tmp_path, capsys):
        current = mutate(artifact, tmp_path, throughput_qps=0.8)
        assert regress.main([str(current),
                             "--baseline", str(artifact)]) == 1
        err = capsys.readouterr().err
        assert "throughput_qps" in err and "dropped 20.0%" in err

    def test_throughput_gain_is_not_a_regression(self, artifact,
                                                 tmp_path):
        current = mutate(artifact, tmp_path, throughput_qps=1.5)
        assert regress.main([str(current),
                             "--baseline", str(artifact)]) == 0

    def test_latency_growth_fails(self, artifact, tmp_path, capsys):
        current = mutate(artifact, tmp_path, latency_p99_us=1.5)
        assert regress.main([str(current),
                             "--baseline", str(artifact)]) == 1
        assert "latency_p99_us" in capsys.readouterr().err

    def test_zero_baseline_share_can_breach(self, artifact, tmp_path,
                                            capsys):
        """A zero baseline has no relative drift; the absolute floor
        still trips on checkpoints taking over the tail."""
        art = json.loads(artifact.read_text())
        art["metrics"]["ckpt_blame_p99_share"] = 0.0
        base = tmp_path / "BENCH_zero.json"
        base.write_text(json.dumps(art))
        art["metrics"]["ckpt_blame_p99_share"] = 0.99
        bad = tmp_path / "BENCH_blamed.json"
        bad.write_text(json.dumps(art))
        assert regress.main([str(bad), "--baseline", str(base)]) == 1
        assert "ckpt_blame_p99_share: grew by 0.99" in capsys.readouterr().err
        art["metrics"]["ckpt_blame_p99_share"] = 0.04
        bad.write_text(json.dumps(art))
        assert regress.main([str(bad), "--baseline", str(base)]) == 0

    def test_operations_must_match_exactly(self, artifact, tmp_path):
        current = mutate(artifact, tmp_path, operations=1.001)
        assert regress.main([str(current),
                             "--baseline", str(artifact)]) == 1

    def test_config_hash_mismatch_refused(self, artifact, tmp_path,
                                          capsys):
        art = json.loads(artifact.read_text())
        art["bench"]["threads"] = 99
        art["config_hash"] = config_hash(art["bench"])
        other = tmp_path / "BENCH_other.json"
        other.write_text(json.dumps(art))
        assert regress.main([str(other),
                             "--baseline", str(artifact)]) == 1
        assert "config_hash mismatch" in capsys.readouterr().err

    def test_missing_file_is_an_error(self, artifact, tmp_path):
        assert regress.main([str(tmp_path / "nope.json"),
                             "--baseline", str(artifact)]) == 2


class TestCommittedBaseline:
    """The repo ships a real baseline the CI gate runs against."""

    def test_baseline_exists_and_loads(self):
        baseline = REPO_ROOT / "BENCH_baseline.json"
        art = load_bench_artifact(str(baseline))
        assert art["schema"] == BENCH_SCHEMA
        assert set(regress.TOLERANCES) <= set(art["metrics"])
        assert art["metrics"]["operations"] == 4000.0
