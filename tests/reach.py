"""The reach gate: every function of src/smforge is entered by a pipeline,
or named in the reach manifest with its reason.

Run as a script, from the repository root:

    python3 tests/reach.py

Under ``sys.setprofile`` (standard library only) it records every code
object entered while it runs, the package's import included:

- one pass of each benchmark workload's requests (``smbench/workloads.py``,
  imported, seed 7), checking every result; the diagram pass builds the
  I(a^2) disk and checks it with ``diagram_report``;
- the paper chain's ``build_main`` (L = 2,746) after ``paper_violations``
  finds no fault, and I(a) accepted on it in 18 steps; the chain's disk is
  left out;
- the 16-letter Z2 pipeline (``tests/pipeline_letters.py``) and I(a^4)
  (``tests/accept_a4.py``), with their own checks.

A function is a ``def`` of a module of src/smforge, named by its module
and qualified name, for example ``smachine.SectorRule.push``; its lines
run from its first decorator to its last line.  Every function no pass
enters needs a line ``module.qualname reason`` in ``reach_manifest.txt``
beside this file, which keeps its lines sorted.  The reasons
(:data:`REASONS`):

- ``edge``: text, JSON and DOT, and ``__repr__``, ``format`` and the other
  protocol methods;
- ``error``: entered only when an input is refused;
- ``traced``: named in ``smbench/layers.py``, or called only by such a
  function;
- ``planned: item N``: a caller that a numbered ROADMAP item adds;
- ``branch: tests/FILE.py::TEST``: called from a reached function on a
  path no pass takes, which the named tier-1 test drives.

It exits nonzero, naming each function, when a check of a pass fails, when
an unreached function has no manifest line, when a manifest line names a
function a pass enters, or when it names no function of src/smforge, or
gives no reason of the five.  Its last line reads

    reach: U of N functions unreached, L of T function lines

The body runs only as a script, so test collection imports this module
without running anything.
"""

import ast
import os
import re
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smforge"
MANIFEST = Path(__file__).resolve().parent / "reach_manifest.txt"
SEED = 7

REASONS = re.compile(
    r"(edge|error|traced|planned: item \d+"
    r"|branch: (tests/test_\w+\.py)::(test_\w+))$")


def functions() -> Dict[str, Tuple[Path, int, int]]:
    """Every ``def`` of the package: module.qualname -> (file, first line,
    last line), the first line being that of its first decorator, as the
    function's code object counts it."""
    out: Dict[str, Tuple[Path, int, int]] = {}

    def walk(node, module: str, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if module + "." + name in out:
                    raise ValueError("%s.%s is defined twice" % (module, name))
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                out[module + "." + name] = (path, first, child.end_lineno)
                walk(child, module, name + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".", path)
            else:
                walk(child, module, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), path.stem, "", path)
    return out


def reason_problem(reason: str) -> Optional[str]:
    """What is wrong with a manifest reason, or None: one of the five, and
    a ``branch`` names a test that its tests/ file defines."""
    m = REASONS.match(reason)
    if m is None:
        return "reason %r is none of edge, error, traced, planned: item N, " \
               "branch: tests/FILE.py::TEST" % reason
    if m.group(2):
        test = ROOT / m.group(2)
        if not test.is_file() or not re.search(
                r"^def %s\(" % m.group(3), test.read_text(), re.M):
            return "no test %s::%s" % (m.group(2), m.group(3))
    return None


def read_manifest(funcs) -> Tuple[Dict[str, str], List[str]]:
    """The manifest's reasons by function name, and what is wrong with it
    whatever the passes reach: a line that is not ``name reason``, a name
    given twice or of no function in ``funcs`` (see :func:`functions`), a
    reason none of the five, or lines out of sorted order."""
    reasons: Dict[str, str] = {}
    problems: List[str] = []
    lines = MANIFEST.read_text().splitlines()
    for i, line in enumerate(lines, 1):
        name, _, reason = line.partition(" ")
        if not reason:
            problems.append("line %d: not 'module.qualname reason'" % i)
        elif name in reasons:
            problems.append("line %d: %s given twice" % (i, name))
        elif name not in funcs:
            problems.append("in the manifest, no such function: %s" % name)
        elif (problem := reason_problem(reason)):
            problems.append("%s: %s" % (name, problem))
        reasons.setdefault(name, reason)
    if lines != sorted(lines):
        problems.append("lines are not sorted")
    return reasons, problems


def _passes() -> List[str]:
    """Run every pass; what failed."""
    import random
    sys.path[:0] = [str(ROOT / "smbench"), str(ROOT / "src")]
    import accept_a4
    import pipeline_letters
    import workloads
    from smforge.mainmachine import (DivisibleRecognizer, Params,
                                     accepting_run, build_main,
                                     paper_violations)

    failed = []
    for name, cls in workloads.WORKLOADS.items():
        w = cls()
        ctx = w.setup()
        failed += ["%s set-up: %s" % (name, p) for p in w.setup_problems(ctx)]
        for req in w.requests(ctx, random.Random(SEED)):
            problem = req.check(req.call())
            if problem:
                failed.append("%s %s: %s" % (name, req.label, problem))

    params = Params(2, 2744, 2745, 2746, 2747, 2748, 2749)
    failed += ["paper chain: %s" % p for p in paper_violations(params)]
    main = build_main(("a",), DivisibleRecognizer(("a",), 1), params)
    res = accepting_run(main.input_i(main.machine.hw.alpha.word(main.A)),
                        main)
    if (res is None or res[0].time != workloads.ACCEPT_STEPS["a"]
            or res[0].final() != main.machine.accept_config()):
        failed.append("paper chain: I(a) is not accepted in %d steps"
                      % workloads.ACCEPT_STEPS["a"])
    del main, res  # free the 2,746 copies before the scripts run

    for script, argv in ((pipeline_letters, ["8"]), (accept_a4, ["4"])):
        if script.main(argv):
            failed.append("%s %s failed" % (script.__name__, " ".join(argv)))
    return failed


def main() -> int:
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    t0 = time.perf_counter()
    sys.setprofile(profile)
    try:
        failed = _passes()
    finally:
        sys.setprofile(None)
    seconds = time.perf_counter() - t0

    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno)
               for c in entered}
    funcs = functions()
    unreached = {name: last - first + 1
                 for name, (path, first, last) in funcs.items()
                 if (os.path.realpath(path), first) not in reached}
    reasons, problems = read_manifest(funcs)
    for name in sorted(unreached.keys() - reasons.keys()):
        problems.append("unreached, not in the manifest: %s (%d lines)"
                        % (name, unreached[name]))
    for name in sorted(reasons.keys() & funcs.keys() - unreached.keys()):
        problems.append("in the manifest, but reached: %s" % name)
    for line in failed + problems:
        print(line)
    total = sum(last - first + 1 for _, first, last in funcs.values())
    print("reach: %d of %d functions unreached, %d of %d function lines "
          "(%.1f s)" % (len(unreached), len(funcs), sum(unreached.values()),
                        total, seconds))
    return 1 if failed or problems else 0


if __name__ == "__main__":
    sys.exit(main())
