"""The job store: per-job isolation, uploads, byte-exact artifacts."""

import os

import pytest

from repro.errors import ServiceError
from repro.service.store import JobStore


@pytest.fixture
def store(tmp_path):
    return JobStore(str(tmp_path / "root"))


def test_layout_created(store):
    assert os.path.isdir(os.path.join(store.root, "jobs"))
    assert os.path.isdir(os.path.join(store.root, "circuits"))


def test_per_job_paths_all_inside_job_dir(store):
    paths = store.paths("j000001")
    values = [
        paths.job_json, paths.journal, paths.supervision_log,
        paths.progress, paths.metrics, paths.results_csv, paths.report,
    ]
    for value in values:
        assert value.startswith(store.job_dir("j000001") + os.sep)


def test_same_circuit_two_jobs_never_collide(store):
    """The artifact-collision regression: every derived sidecar name
    (journal, ``.events``, ``.corrupt``, progress beacon) is scoped by
    the job directory, so two concurrent jobs on the same circuit share
    no path."""
    a, b = store.paths("j000001"), store.paths("j000002")
    pairs = [
        (a.journal, b.journal),
        (a.journal + ".corrupt", b.journal + ".corrupt"),
        (a.supervision_log, b.supervision_log),
        (a.progress, b.progress),
        (a.metrics, b.metrics),
        (a.results_csv, b.results_csv),
    ]
    for left, right in pairs:
        assert left != right
        assert os.path.dirname(left) != os.path.dirname(right)


@pytest.mark.parametrize("bad", ["", "../x", "a/b", ".hidden"])
def test_job_dir_rejects_traversal(store, bad):
    with pytest.raises(ServiceError):
        store.job_dir(bad)


def test_add_circuit_content_addressed_dedupe(store):
    first = store.add_circuit("INPUT(A)\nOUTPUT(A)\n")
    again = store.add_circuit("INPUT(A)\nOUTPUT(A)\n")
    other = store.add_circuit("INPUT(B)\nOUTPUT(B)\n")
    assert first == again
    assert first != other
    assert os.path.dirname(first) == os.path.join(store.root, "circuits")
    assert sorted(os.listdir(os.path.dirname(first))) == sorted(
        [os.path.basename(first), os.path.basename(other)]
    )


def test_add_circuit_normalizes_newlines(store):
    crlf = store.add_circuit("INPUT(A)\r\nOUTPUT(A)")
    lf = store.add_circuit("INPUT(A)\nOUTPUT(A)\n")
    assert crlf == lf


def test_artifact_roundtrip_byte_exact(store):
    """CSV artifacts carry \\r\\n line endings; the store must not let
    universal-newline translation rewrite them (the byte-identity
    guarantee of fetched results rests on this)."""
    paths = store.create_job_dir("j000001")
    text = "fault,detected\r\nG1/0,1\r\n"
    store.write_text(paths.results_csv, text)
    assert store.read_text(paths.results_csv) == text


def test_write_json_read_json(store):
    paths = store.create_job_dir("j000001")
    store.write_json(paths.job_json, {"a": 1})
    assert store.read_json(paths.job_json) == {"a": 1}
    assert store.read_json(paths.metrics) is None


def test_atomic_write_leaves_no_temp_files(store):
    paths = store.create_job_dir("j000001")
    for _ in range(3):
        store.write_text(paths.results_csv, "x\n")
    assert os.listdir(paths.root) == ["results.csv"]
