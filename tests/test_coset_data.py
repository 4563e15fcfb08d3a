"""The coset rows load their index-r subgroups from bundled data: no load
searches, the regeneration tool reproduces the files, and a bad file fails
with a message naming the builtin."""

import importlib.util
from pathlib import Path

import pytest

from rank3pls import catalog
from rank3pls.cli import main
from rank3pls.permcore import PermGroup, sigma_partition, write_group_file

TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_sporadic_data.py"


def _tool():
    spec = importlib.util.spec_from_file_location("gen_sporadic_data", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("filename", [
    "3S6_deg18.grp",
    "2M12_deg24.grp",
    "PSL3_2_deg14.sub.grp",
    "M11_deg22.sub.grp",
    "PSL3_3_deg39.sub.grp",
    "PSL3_5_deg155.sub.grp",
    "PSL5_2_deg248.sub.grp",
    "PGL3_4_deg126.sub.grp",
    pytest.param("PGammaL3_8_deg2044.sub.grp", marks=pytest.mark.slow),
])
def test_tool_regenerates_bundled_subgroup(filename, tmp_path):
    _tool().write(filename, tmp_path)
    assert (tmp_path / filename).read_bytes() == \
        catalog._DATA.joinpath(filename).read_bytes()


@pytest.mark.parametrize("name", ["PSL3_2_deg14", "C2xPSL3_2_deg14", "M11_deg22"])
def test_seed_reaches_the_plinth(name, fresh_caches):
    assert catalog.get_builtin(name, 11).group.seed == 11


@pytest.mark.parametrize("name", ["C2xPSL3_2_deg14", "C2xM11_deg22"])
def test_c2x_row_doubles_its_base_row(name):
    """A C2x row is its base row's generators and the swap of the two
    points of each Sigma-cell."""
    G = catalog.get_builtin(name.removeprefix("C2x")).group
    swap = list(range(G.degree))
    for a, b in sigma_partition(G).tolist():
        swap[a], swap[b] = b, a
    gens = catalog.get_builtin(name).group.gens
    assert [g.tolist() for g in gens] == [g.tolist() for g in G.gens] + [swap]


def test_no_default_build_searches(monkeypatch, fresh_caches):
    def refuse(*args, **kwargs):
        raise AssertionError("a catalogue build searched")

    for name in ("subgroup_of_index", "normal_subgroup_of_index",
                 "normal_closure", "random_element"):
        monkeypatch.setattr(PermGroup, name, refuse)
    names = [nm for nm, meta in catalog.ALL_BUILTINS.items()
             if meta.route == "coset" and meta.degree <= 300]
    assert len(names) == 8
    for nm in names:
        built = catalog.get_builtin(nm)
        assert built.group.order == built.meta.order


def _outside_g0(degree, gens):
    """Replace the first generator by the transposition (0 1)."""
    swap = list(range(degree))
    swap[0], swap[1] = 1, 0
    return [swap] + gens[1:]


def _wrong_index(degree, gens):
    """Keep only the first generator."""
    return gens[:1]


@pytest.mark.parametrize("name", ["PSL3_3_deg39", "C2xM11_deg22"])
@pytest.mark.parametrize("perturb, fault", [(_outside_g0, "outside G_0"),
                                            (_wrong_index, "index")])
def test_bad_bundled_subgroup_fails_loudly(name, perturb, fault, tmp_path,
                                           monkeypatch, capsys, fresh_caches):
    filename = f"{name.removeprefix('C2x')}.sub.grp"
    degree, gens = catalog._read_data(filename)
    write_group_file(tmp_path / filename, degree, perturb(degree, gens))
    monkeypatch.setattr(catalog, "_DATA", tmp_path)
    with pytest.raises(AssertionError, match=name) as info:
        catalog.get_builtin(name)
    assert fault in str(info.value)
    capsys.readouterr()
    assert main(["group", "--group", f"builtin:{name}"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]
