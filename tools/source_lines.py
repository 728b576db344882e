"""Print the code, docstring, comment and blank lines of each module.

Run from the repository root: ``python tools/source_lines.py``.  A
docstring line is any line of a module, class or function docstring; a
comment line holds nothing but its comment; code lines are the rest.
"""

import ast
import glob
import io
import tokenize


def count(source: str) -> list[int]:
    """[lines, code, docstring, comment, blank] of one module's source."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstring.update(range(body[0].lineno, body[0].end_lineno + 1))
    comment = {token.start[0] for token in
               tokenize.generate_tokens(io.StringIO(source).readline)
               if token.type == tokenize.COMMENT
               and lines[token.start[0] - 1].lstrip().startswith("#")}
    comment -= docstring
    blank = {i for i, line in enumerate(lines, 1) if not line.strip()}
    blank -= docstring
    return [len(lines), len(lines) - len(docstring | comment | blank),
            len(docstring), len(comment), len(blank)]


def main() -> None:
    print(f"{'module':36}{'lines':>7}{'code':>7}{'doc':>7}{'comment':>8}{'blank':>7}")
    total = [0] * 5
    for path in sorted(glob.glob("src/sparsefolio/*.py")):
        with open(path, encoding="utf-8") as handle:
            row = count(handle.read())
        total = [a + b for a, b in zip(total, row)]
        print(f"{path:36}{row[0]:7}{row[1]:7}{row[2]:7}{row[3]:8}{row[4]:7}")
    print(f"{'total':36}{total[0]:7}{total[1]:7}{total[2]:7}{total[3]:8}{total[4]:7}")


if __name__ == "__main__":
    main()
