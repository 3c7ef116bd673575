import re
from pathlib import Path

from one_point import scan_one
from spinent.basis import build_basis, nonnegative_sectors, parity_blocks
from spinent.hamiltonian import SectorWorkspace, model_for
from spinent.lattice import chain_lattice

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_prints_the_values_it_shows(capsys):
    """The first example under "Library use" runs, and prints exactly the
    values its comments claim, so the text cannot drift from the code."""
    section = _README.read_text().split("## Library use", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    claimed = re.findall(r"^print\(.*\)\s+# (\S+)$", example, flags=re.MULTILINE)
    assert claimed == ["-4.557272440830395", "1.3555854562382934", "0.38666476054084775"]
    exec(compile(example, str(_README), "exec"), {})
    assert capsys.readouterr().out.split() == claimed


def test_quoted_block_sizes_are_the_parity_blocks():
    """The L=6 spin-1 block sizes the README quotes, under R and F and with
    the half translation, are those parity_blocks builds, in its order, and
    so are the sums of cubes it quotes over every Sz >= 0 sector."""
    text = " ".join(_README.read_text().split())
    quoted = re.findall(
        r"Sz=(\d+)'s (\d+) states split into ([\d, and]+) under R and F, "
        r"and into ([\d, and]+) with the half translation", text)
    assert [sz for sz, *_ in quoted] == ["0", "1"]
    ring = chain_lattice(6)
    for sz, states, coarse, fine in quoted:
        basis = build_basis(6, "one", float(sz))
        assert int(states) == basis.dimension
        for sizes, halves in ((coarse, ()), (fine, ring.half_translations())):
            blocks = parity_blocks(basis, ring.reflection(), halves)
            assert list(map(int, re.findall(r"\d+", sizes))) == [b.dimension for b in blocks]
    cubes = re.search(r"sum of cubes over its Sz >= 0 blocks falls from ([\d,]+) to ([\d,]+)", text)
    for quoted_sum, halves in zip(cubes.groups(), ((), ring.half_translations())):
        blocks = [block for sz in nonnegative_sectors("one", 6)
                  for block in parity_blocks(build_basis(6, "one", sz), ring.reflection(), halves)]
        assert int(quoted_sum.replace(",", "")) == sum(block.dimension ** 3 for block in blocks)


def test_quoted_rescued_degeneracy_is_the_scan_count():
    """The blbq ground-state count the README quotes next to the SU(3)
    point, where Lanczos runs out of steps and the sector is solved densely
    instead, is what a scan counts."""
    text = " ".join(_README.read_text().split())
    size, theta, count = re.search(
        r"`blbq` L=(\d+) at theta = ([\d.]+) counts ([\d,]+) ground states", text).groups()
    workspace = SectorWorkspace("blbq", chain_lattice(int(size)))
    report = scan_one(workspace, model_for("blbq", float(theta)))
    assert report.degeneracy == int(count.replace(",", "")) == 752
