#!/usr/bin/env python3
"""Lists the probsyn:: functions the library defines that no production
binary links.

Build the library and the production binaries with one section per
function and the linker's section garbage collection, so that each binary
keeps only the functions it reaches (docs/architecture.md gives the same
commands):

    F1='-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections'
    F2='-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections'
    cmake -B build-reach -S . -DCMAKE_BUILD_TYPE=Release \\
        -DPROBSYN_BUILD_TESTS=OFF -DPROBSYN_BUILD_BENCH=OFF "$F1" "$F2"
    cmake --build build-reach -j
    cmake -B build-reach-perf -S perfbench -DCMAKE_BUILD_TYPE=Release \\
        "$F1" "$F2"
    cmake --build build-reach-perf --target perfbench -j

then pass the library first and the binaries after it:

    tools/unreached_functions.py build-reach/libprobsyn.a \\
        build-reach/probsyn build-reach/examples/* build-reach-perf/perfbench

It prints each unreached function (demangled, sorted), then one line
"<unreached> of <defined> probsyn:: functions unreached". A name counts
once however many object files define it; the partial, cold and
specialized copies GCC emits ("[clone .part.0]", "[clone .cold]", ...)
are names of their own. Which helpers keep a symbol depends on the
compiler's inlining, so the count moves with the compiler and its
flags: it is a review aid, not a gate.
"""

import subprocess
import sys

# nm types of code: global, local and weak text.
TEXT_TYPES = set("TtWw")


def functions(path):
    """The demangled probsyn:: functions `path` defines (a library or a
    binary)."""
    out = subprocess.run(["nm", "-C", "--defined-only", path],
                         capture_output=True, text=True, check=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in TEXT_TYPES and parts[2].startswith(
                "probsyn::"):
            names.add(parts[2])
    return names


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    defined = functions(sys.argv[1])
    linked = set()
    for binary in sys.argv[2:]:
        linked |= functions(binary)
    unreached = sorted(defined - linked)
    for name in unreached:
        print(name)
    print(f"{len(unreached)} of {len(defined)} probsyn:: functions unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
