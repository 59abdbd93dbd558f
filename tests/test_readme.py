"""README's Python examples run as written, in order, in one namespace, and
every claim their comments make holds.

A claim is a comment of one of these forms; any other comment is prose.
- `# a == b`, a comparison, alone on its line or after a statement: it
  evaluates to True once the statements above it have run.
- `# == X` after a statement: the statement's value, or the value of the one
  name it assigns, equals X. X is the longest run of leading words that
  parses as an expression, so prose may follow it (`# == 1.75 bits`).
- `# True` after a statement: its value is True.
- `# raises Error` after a statement: it raises that package error.
Statements that hold others, such as a for loop, run whole; their comments
are prose and their own asserts check them.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

import vtcodes

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def leading_expression(text):
    words = text.split()
    for end in range(len(words), 0, -1):
        candidate = " ".join(words[:end])
        try:
            ast.parse(candidate, mode="eval")
        except SyntaxError:
            continue
        return candidate
    raise AssertionError(f"the claim {text!r} starts with no expression")


def comparison(text):
    try:
        return isinstance(ast.parse(text, mode="eval").body, ast.Compare)
    except SyntaxError:
        return False


def comments(source):
    """{line: (comment text, alone on its line)} of one block."""
    found = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            row, col = token.start
            found[row] = (token.string[1:].strip(), not token.line[:col].strip())
    return found


def run(statement, namespace):
    """Run one statement; its value, or that of the one name it assigns."""
    if isinstance(statement, ast.Expr):
        return eval(compile(ast.Expression(statement.value), str(README), "eval"), namespace)
    exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
    targets = getattr(statement, "targets", ())
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        return namespace[targets[0].id]
    return None


def check(claim, statement, namespace):
    """Run statement (None for a claim alone on its line) and check claim;
    True when the comment was a claim."""
    if statement is not None and claim.startswith("raises "):
        with pytest.raises(getattr(vtcodes, claim.split()[1])):
            run(statement, namespace)
        return True
    value = None if statement is None else run(statement, namespace)
    if comparison(claim):
        assert eval(claim, namespace) is True, claim
    elif statement is not None and claim.startswith("=="):
        expected = eval(leading_expression(claim[2:]), namespace)
        assert value == expected, (claim, value)
    elif statement is not None and claim == "True":
        assert value is True, claim
    else:
        return False
    return True


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 4


def test_readme_examples_hold():
    namespace, claims = {}, []
    for source in BLOCKS:
        notes = comments(source)
        module = ast.parse(source)
        steps = [(s.lineno, s) for s in module.body]
        spans = {row for s in module.body for row in range(s.lineno, s.end_lineno + 1)}
        steps += [(row, None) for row, (_, alone) in notes.items() if alone and row not in spans]
        for row, statement in sorted(steps, key=lambda step: step[0]):
            if statement is None:
                claim = notes[row][0]
            elif statement.lineno == statement.end_lineno and statement.lineno in notes:
                claim = notes[statement.lineno][0]
            else:
                run(statement, namespace)
                continue
            if check(claim, statement, namespace):
                claims.append(claim)
    # the quick start alone makes eight claims; a parser that saw none would pass vacuously
    assert len(claims) >= 8, claims
    assert any(claim.startswith("raises ") for claim in claims)
