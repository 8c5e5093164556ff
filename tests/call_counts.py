"""Counting Python calls while a function runs, for tests that pin how much
work a code path does (Fraction constructions, oracle searches, parses)."""

import sys


def calls_while(fn, match):
    """How many calls of code objects that ``match(code)`` accepts start
    while ``fn()`` runs.

    The count installs its own profile function and then restores the outer
    one: a Python profile function by ``sys.setprofile``, and a C profiler
    such as ``cProfile.Profile``, which ``sys.getprofile`` returns but which
    is not callable, by its ``enable()``, which resumes its recording.
    """
    count, outer = 0, sys.getprofile()

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and match(frame.f_code):
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        if outer is None or callable(outer):
            sys.setprofile(outer)
        else:
            outer.enable()
    return count
