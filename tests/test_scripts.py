"""The CI scripts that count inside the library put it back as they found
it."""

import accept_a4
import pipeline_letters
from smforge import smachine, words


def counted_bindings():
    return (smachine._Step.__init__, smachine._Run.step,
            words._Folder.__init__)


def test_the_counting_scripts_restore_the_library():
    """accept_a4 wraps the run steps and pipeline_letters the folder with
    counters while they run; after each main returns, the library's own
    functions are bound again."""
    before = counted_bindings()
    assert accept_a4.main(["1"]) == 0
    assert counted_bindings() == before
    assert pipeline_letters.main(["1"]) == 0
    assert counted_bindings() == before
