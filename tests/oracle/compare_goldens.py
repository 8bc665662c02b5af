"""Each golden cell that differs between two golden directories, against
its exact value in tests/golden/reference.json.

    python tests/oracle/compare_goldens.py OLD_DIR [NEW_DIR]

NEW_DIR defaults to tests/golden.  One line per changed cell: file, cell,
old -> new, the exact value, |old - ref|, |new - ref| and the bound of
tests/test_reference.py; "farther" marks a cell that moved away from its
reference.  A cell that did not change but is outside its bound is
listed too.  Use it to write up a change that moves golden digits.
"""
import pathlib
import sys

TESTS = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(TESTS))

from test_reference import (GOLDENS, allowed, golden_cells,  # noqa: E402
                            printed_digits)


def main(argv: list[str]) -> int:
    old_dir = pathlib.Path(argv[0])
    new_dir = pathlib.Path(argv[1]) if len(argv) > 1 else TESTS / "golden"
    changed = farther = outside = 0
    for name in GOLDENS:
        old = list(golden_cells(name, (old_dir / name).read_text()))
        new = list(golden_cells(name, (new_dir / name).read_text()))
        assert [c[0] for c in old] == [c[0] for c in new], name
        for (where, before, exact), (_, after, _) in zip(old, new):
            ref = float(exact)
            err_old = abs(float(before) - ref)
            err_new = abs(float(after) - ref)
            bound = allowed(ref, printed_digits(name))
            outside += err_new > bound
            if before == after and err_new <= bound:
                continue
            changed += before != after
            farther += err_new > err_old
            mark = " farther" if err_new > err_old else ""
            mark += " OUTSIDE" if err_new > bound else ""
            print(f"{name} | {where} | {before} -> {after} | ref {exact} | "
                  f"old {err_old:.3g} | new {err_new:.3g} | "
                  f"bound {bound:.3g}{mark}")
    print(f"{changed} cells changed, {farther} farther from the reference, "
          f"{outside} outside the bound")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
