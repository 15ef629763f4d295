"""Byte oracles: simple reference implementations the pipeline is pinned to.

Each module keeps a deliberately plain, scalar version of one production
hot path.  Tests compare the shipping code against it byte for byte; no
study ever runs it.
"""
