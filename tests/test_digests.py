"""The output and chain digests, each in a fresh interpreter.

tools/output_digest.py hashes the tables, the pipeline reports, the
family outputs and `verify` of each family JSON; tools/chain_digest.py
hashes every stabilizer chain of the default tables run, or with
--catalogue every chain but those of the family groups.  A change that
moves either has to update the digest pinned here on purpose.
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
        "eaa8f1e64fde20ed2cf280ab9a5dbb0c9116c9df9770dc486e838d686ce4eccf"
        "  rows=33 builtins=20 families=10")


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
        "29839865b25dc0ca747e7d9291e737b6c24ac3f1813cc1f4a85ffa18d5aa74aa"
        "  rows=62 builtins=21 families=10")
