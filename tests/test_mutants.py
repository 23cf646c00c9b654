"""scripts/mutants.py's list stays pointed at the code: each mutant's text
occurs exactly once in its file, and the file it mutates compiles. No
mutant runs here."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_mutant_names_a_text_that_occurs_once_and_existing_tests():
    assert mutants.misplaced(mutants.MUTANTS) == []
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        assert m.tests and all((ROOT / t.split("::")[0]).is_file() for t in m.tests), m.name


def test_an_entry_whose_text_is_gone_or_repeated_is_named():
    first = mutants.MUTANTS[0]
    gone = first._replace(name="gone", text="a text that is in no file")
    repeated = first._replace(name="repeated", text="import ")
    same = first._replace(name="same", replacement=first.text)
    broken = first._replace(name="broken", replacement=first.text + "    (\n")
    *problems, last = mutants.misplaced([first, gone, repeated, same, broken])
    assert problems == [
        f"gone: its text occurs 0 times in {first.file}",
        f"repeated: its text occurs {(ROOT / first.file).read_text().count('import ')} "
        f"times in {first.file}",
        "same: its replacement is its text"]
    assert last.startswith(f"broken: the mutated {first.file} does not compile: ")
