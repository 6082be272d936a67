"""The global-view SVG is the same bytes in every process.

Two regressions, both visible only across processes:

- a session restarted over a warm cache directory used to render every
  edge in the default colour: the movement products came back from disk
  keyed by copies of the graph's edges, which never matched the live
  graph;
- node tooltips printed the process-local ``uid``, so two processes sent
  different bytes for one graph.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import sys
from repro.apps import hdiff
from repro.tool.session import Session

session = Session(hdiff.build_sdfg(), cache_dir=sys.argv[1] if len(sys.argv) > 1 else None)
sys.stdout.write(session.global_view().render(env={"I": 64, "J": 64, "K": 32}, edge_overlay="movement"))
"""


def _render(*args: str) -> str:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = src
    return subprocess.run(
        [sys.executable, "-c", _SCRIPT, *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    ).stdout


def test_fresh_and_restarted_processes_render_identical_svg(tmp_path):
    fresh = _render()
    assert 'stroke="#555555"' not in fresh  # every edge carries the overlay
    assert "uid=" not in fresh
    assert _render() == fresh  # a second interpreter: same bytes
    cache_dir = str(tmp_path / "cache")
    assert _render(cache_dir) == fresh  # fills the cache directory
    assert _render(cache_dir) == fresh  # restarted over the warm directory
