#!/usr/bin/env python3
"""Doc-comment checker for the repo's flagship public headers.

A lightweight stand-in for `doxygen -WARN_AS_ERROR` that needs nothing
but python3: it parses the given headers and fails (exit 1, one line per
problem) when

  * a public namespace-scope construct (class/struct/enum/function/
    constant) has no `///` doc comment immediately above it,
  * a `///` block is orphaned (followed by a blank line or another
    comment block instead of a declaration), or
  * `//` line comments and `///` doc comments are mixed inside one block
    (doxygen silently drops the `//` lines — a classic parse warning).

Usage: tools/check_doc_comments.py <header> [<header> ...]
CI's docs job runs it on the flagship public headers it lists
(.github/workflows/ci.yml).
"""

import re
import sys

# Namespace-scope constructs that must carry a /// block. Indented (member)
# declarations are the owning class's documentation problem, not ours.
DECL_RE = re.compile(
    r"^(?:template\s*<.*>\s*)?"
    r"(class|struct|enum\s+class|enum|using|inline|constexpr|const\s|"
    r"std::|[A-Za-z_][A-Za-z0-9_:]*\s*<?.*>?\s+[A-Za-z_][A-Za-z0-9_]*\s*\()"
)
SKIP_RE = re.compile(
    r"^(#|\}|\)|namespace\s|extern\s|static_assert|"
    r"PROBSYN_|BENCHMARK|TEST|using\s+namespace)"
)


FORWARD_DECL_RE = re.compile(r"^(class|struct)\s+\w+;\s*$")
INTERNAL_NS_RE = re.compile(r"^namespace\s+\w*internal\w*\s*\{")
NS_CLOSE_RE = re.compile(r"^\}\s*//\s*namespace\s+(\w+)")


def is_declaration(line: str) -> bool:
    if line != line.lstrip():
        return False  # members are covered by their class's doc
    if SKIP_RE.match(line) or FORWARD_DECL_RE.match(line):
        return False
    return bool(DECL_RE.match(line))


def check_header(path: str):
    problems = []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()

    doc_open = False        # inside a /// block
    doc_has_plain = False   # block mixed /// with //
    doc_start = 0
    decl_continuation = False
    internal_ns = None      # inside a *internal* namespace: impl detail

    for number, raw in enumerate(lines, start=1):
        line = raw.rstrip()
        stripped = line.strip()

        if internal_ns is None and INTERNAL_NS_RE.match(stripped):
            internal_ns = stripped.split()[1]
            continue
        if internal_ns is not None:
            close = NS_CLOSE_RE.match(stripped)
            if close and close.group(1) == internal_ns:
                internal_ns = None
            continue
        is_doc = stripped.startswith("///")
        is_plain_comment = stripped.startswith("//") and not is_doc

        if is_doc:
            if not doc_open:
                doc_open = True
                doc_has_plain = False
                doc_start = number
            continue

        if doc_open and is_plain_comment:
            doc_has_plain = True
            continue

        if doc_open:
            if doc_has_plain:
                problems.append(
                    f"{path}:{doc_start}: /// block mixes plain // lines "
                    f"(doxygen drops them)")
            if not stripped:
                problems.append(
                    f"{path}:{doc_start}: orphaned /// block (followed by a "
                    f"blank line, attaches to nothing)")
            doc_open = False
            decl_continuation = False
            continue  # this line was documented (or blank-line-flagged)

        if not stripped or is_plain_comment:
            decl_continuation = False
            continue

        if not decl_continuation and is_declaration(line):
            problems.append(
                f"{path}:{number}: public declaration without a /// doc "
                f"comment: {stripped[:60]}")
        # A namespace-scope statement may span lines; swallow until it
        # closes so continuation lines aren't re-flagged. Every line,
        # continuation lines included, decides whether the statement goes
        # on, so the declaration after a multi-line one is checked.
        decl_continuation = not (
            stripped.endswith((";", "{", "}")))
    return problems


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    problems = []
    for path in sys.argv[1:]:
        problems.extend(check_header(path))
    for problem in problems:
        print(problem)
    print(f"checked {len(sys.argv) - 1} header(s): "
          f"{'FAIL' if problems else 'OK'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
