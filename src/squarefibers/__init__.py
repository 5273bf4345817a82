"""Exact square-map fibers and real conjugacy class counts for finite
classical groups over odd-order fields, audited against brute force."""

__version__ = "0.1.0"
