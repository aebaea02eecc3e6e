"""Byte-identity of the CLI on a fixed command corpus.

``data/cli_corpus.json`` holds, for each argv, the stdout, stderr and exit
code that ``flopcalc`` produced when the corpus was recorded. Each case is
replayed in-process and must match byte for byte. A change that means to
alter one of these outputs updates the recorded bytes and says why.
"""

import json
from pathlib import Path

import pytest

from flopcalc.cli import main

CORPUS_PATH = Path(__file__).parent / "data" / "cli_corpus.json"
CORPUS = json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CORPUS, ids=[" ".join(c["argv"]) for c in CORPUS])
def test_replay_matches_recorded_bytes(capsys, case):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert captured.out == case["stdout"]
    assert captured.err == case["stderr"]
    assert code == case["exit_code"]


def test_replay_ignores_the_environment(capsys, tmp_path, monkeypatch):
    # each setting comes from argv alone, so a config file named in the
    # environment changes no byte
    cfg = tmp_path / "flopcalc.cfg"
    cfg.write_text("format = json\nmax_n = 3\n")
    monkeypatch.setenv("FLOPCALC_CONFIG", str(cfg))
    for case in CORPUS:
        code = main(list(case["argv"]))
        captured = capsys.readouterr()
        assert (captured.out, captured.err, code) == (
            case["stdout"], case["stderr"], case["exit_code"]), case["argv"]
