"""Values built on first read and kept on their owner, failure included."""


class kept:
    """An attribute built by ``build(owner)`` on first read and kept.

    The value is set on the instance, as ``functools.cached_property`` sets
    it: later reads are free, an assignment replaces it, and a
    ``dataclasses.replace`` copy starts with none.  A build that raises
    keeps its exception, and every later read raises that same object: the
    build runs once.  ``kept.value`` keeps a value under any other key."""

    def __init__(self, build):
        self.build, self.__doc__ = build, build.__doc__

    def __set_name__(self, cls, name):
        self.name = name

    def __get__(self, owner, cls=None):
        if owner is None:
            return self
        return kept.value(owner, self.name, lambda: self.build(owner))

    @staticmethod
    def value(owner, key: str, build):
        """``build()``, kept on ``owner`` under ``key`` as above."""
        store = vars(owner)
        if key not in store:
            if key + " (failed)" in store:
                raise store[key + " (failed)"]
            try:
                store[key] = build()
            except Exception as exc:
                store[key + " (failed)"] = exc
                raise
        return store[key]
