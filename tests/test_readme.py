import re
from pathlib import Path

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
