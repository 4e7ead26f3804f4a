"""The CLI against its golden corpus.

tests/golden/ holds the exit code, stdout, stderr and `--cohort-out` CSV
hash of every `tools/cli_parity.py` command, recorded with
`python3 tools/cli_parity.py --record CHECKOUT`.  The commands run here
in fresh interpreters, as the parity tool runs them.  `evalue`,
`convert` and `curve` output and every error output must match byte for
byte; the `simulate` and `analyze` JSON must keep its keys, key order
and non-float values, with floats within 1e-12 relative, because
numpy's vectorised `exp` and `log` do not promise the same last bit on
every CPU.  argparse's usage and error text comes from the running
interpreter; the corpus was recorded under Python 3.11.  Regenerating
the corpus is a listed change with its reason.
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import cli_parity  # noqa: E402

REL_TOL = 1e-12


def test_cli_matches_golden_corpus():
    expected = cli_parity.read_golden()
    got = cli_parity.run_all(ROOT)
    differs = {}
    for command, want, have in zip(cli_parity.COMMANDS, expected, got):
        diff = cli_parity.compare(command, want, have, REL_TOL)
        if diff:
            differs[command] = diff
    assert not differs
