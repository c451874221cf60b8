"""A lock-free cached attribute for the toolkit's per-instance invariants."""
from __future__ import annotations


class cached_attribute:
    """An attribute computed on its first read.  The value is stored in
    the instance's `__dict__` under the attribute's name, where it shadows
    this (non-data) descriptor, so later reads are plain attribute
    lookups.  Unlike `functools.cached_property` on Python 3.10 and 3.11,
    it takes no lock: two threads that race on a first read may both
    compute the value, and one of the equal values is kept."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value
