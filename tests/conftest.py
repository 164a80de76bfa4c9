"""Shared fixtures: discovery reports are expensive, so compute each once."""

import contextlib
import io
import time

import pytest

import isekit as ik
from isekit.cli import main


def _timed_sound_reports(shapes):
    out = {}
    for shape in shapes:
        t0 = time.monotonic()
        report = ik.discover(shape, ik.RunConfig())
        out[shape] = (report, time.monotonic() - t0)
    return out


@pytest.fixture(scope="session")
def sound_reports():
    """Sound-mode reports and wall times for the small problem sizes."""
    return _timed_sound_reports([(0, 1, 0), (0, 1, 1), (1, 1, 0), (0, 2, 1)])


@pytest.fixture(scope="session")
def large_sound_reports():
    """Sound-mode reports and wall times for 1-2-0 and 1-1-1 (~10 s together)."""
    return _timed_sound_reports([(1, 2, 0), (1, 1, 1)])


@pytest.fixture(scope="session")
def conjectural_reports():
    """Conjectural-mode reports of the six reference shapes (~2 s together)."""
    return {shape: ik.discover(shape, ik.RunConfig(mode="conjectural"))
            for shape in [(0, 1, 0), (0, 1, 1), (1, 1, 0), (0, 2, 1), (1, 2, 0), (1, 1, 1)]}


@pytest.fixture(scope="session")
def simplify_stdout(sound_reports, large_sound_reports, tmp_path_factory):
    """shape -> what `isekit simplify` writes to stdout for its sound MGIC,
    run once per shape on first use."""
    reports = {**sound_reports, **large_sound_reports}
    out = {}

    def run(shape):
        if shape not in out:
            path = tmp_path_factory.mktemp("simplify") / "report.json"
            path.write_text(reports[shape][0].dumps())
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                assert main(["simplify", str(path)]) == 0
            out[shape] = buf.getvalue()
        return out[shape]

    return run
