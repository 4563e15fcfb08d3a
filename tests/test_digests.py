"""The output and chain digests, each in a fresh interpreter.

tools/output_digest.py hashes the tables, the pipeline reports and the
family outputs; tools/chain_digest.py hashes every stabilizer chain of the
default tables run, or with --catalogue every chain but those of the family
groups.  A change that moves either has to update the digest
pinned here on purpose.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _digest(tool: str, *args: str) -> str:
    out = subprocess.run([sys.executable, str(ROOT / "tools" / tool), *args],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_output_digest():
    assert _digest("output_digest.py") == (
        "7beaaf873300aced8a053818ae7ff6a0486774b39fe88b580efad9394259d53a"
        "  rows=33 builtins=20 families=8")


def test_chain_digest():
    assert _digest("chain_digest.py") == (
        "1acc1ad52fd558b3d2331743918d2dd0426c7953a883f5abd2a4ba91d6a13c33"
        "  tables=43 chains=46")


def test_catalogue_chain_digest():
    """The chains of the catalogue and the pipeline alone, without the
    family groups the Table 2 rows build to decide their structures."""
    assert _digest("chain_digest.py", "--catalogue") == (
        "44915bdc5af6b30d26560c85161ec2712e981d07563d0c31328d756dfd49515e"
        "  tables=36 chains=39")


@pytest.mark.slow
def test_slow_output_digest():
    assert _digest("output_digest.py", "--slow") == (
        "3dcba6964a9ba7346c25793213cc0515913f12b8564193ec7599889d871b79d6"
        "  rows=62 builtins=21 families=8")
