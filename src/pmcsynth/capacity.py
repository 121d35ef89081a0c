"""The error every size cap raises (exit 4 on the command line).

It lives apart from the modules that define the caps, so that ``ratfunc``,
which every other module imports, can raise it without importing them.
"""


class CapacityError(Exception):
    """A configured size cap would be exceeded; raised before any big allocation."""
