"""Values built on first read and kept (``su2ladders.lazy.kept``)."""

import dataclasses

import pytest

from su2ladders.lazy import kept


@dataclasses.dataclass(frozen=True)
class Owner:
    """Counts the builds of its kept value in ``builds``."""
    fails: bool
    builds: list = dataclasses.field(default_factory=list, compare=False)

    @kept
    def value(self):
        """The number of builds so far."""
        self.builds.append(self.fails)
        if self.fails:
            raise RuntimeError("build failed")
        return len(self.builds)


def test_a_value_is_built_once_and_set_on_the_instance():
    owner = Owner(fails=False)
    assert owner.value == 1 and owner.value == 1
    assert owner.builds == [False] and vars(owner)["value"] == 1
    assert Owner.value.__doc__ == "The number of builds so far."


def test_a_failed_build_runs_once_and_raises_the_same_exception():
    owner = Owner(fails=True)
    errors = []
    for _ in range(3):
        with pytest.raises(RuntimeError, match="build failed") as err:
            owner.value
        errors.append(err.value)
    assert owner.builds == [True]
    assert errors[1] is errors[0] and errors[2] is errors[0]


def test_a_replace_copy_builds_anew():
    owner = Owner(fails=True)
    with pytest.raises(RuntimeError):
        owner.value
    copy = dataclasses.replace(owner, fails=False, builds=[])
    assert copy.value == 1 and copy.builds == [False]
    built = Owner(fails=False)
    assert built.value == 1
    again = dataclasses.replace(built, builds=[])
    assert "value" not in vars(again) and again.value == 1


def test_an_assignment_replaces_a_kept_value_or_failure():
    class Plain:
        @kept
        def value(self):
            raise RuntimeError("build failed")

    owner = Plain()
    with pytest.raises(RuntimeError):
        owner.value
    owner.value = 2
    assert owner.value == 2
    owner.value = 3
    assert owner.value == 3


def test_a_value_under_a_key_is_kept_alike():
    owner = Owner(fails=False)
    calls = []

    def failing():
        calls.append(1)
        raise ValueError("keyed build failed")
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            kept.value(owner, "keyed value", failing)
        errors.append(err.value)
    assert calls == [1] and errors[0] is errors[1]
    assert kept.value(owner, "other key", lambda: 5) == 5
    assert kept.value(owner, "other key", failing) == 5
