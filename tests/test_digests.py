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
        "d937b447dad5fe8e2ebee2f4496f4ec7e4984d02a8328a712350f032eecaf63b"
        "  tables=42 chains=45")


def test_catalogue_chain_digest():
    """The chains of the catalogue and the pipeline alone, without the
    chains first built for the Table 2 family structures (GL3_3 reuses
    Delta(3, 3)'s)."""
    assert _digest("chain_digest.py", "--catalogue") == (
        "fa39a7f26e913c4455298434dc3518529619284a18b16e7ef61f62c7e4e40864"
        "  tables=35 chains=38")


@pytest.mark.slow
def test_slow_output_digest():
    assert _digest("output_digest.py", "--slow") == (
        "29839865b25dc0ca747e7d9291e737b6c24ac3f1813cc1f4a85ffa18d5aa74aa"
        "  rows=62 builtins=21 families=10")
