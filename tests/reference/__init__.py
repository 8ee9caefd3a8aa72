"""Reference oracles the tests and the ablation benchmarks compare against.

Each module keeps a seed implementation that production code replaced with a
faster one, so the property suites can check that the replacement produces
identical state.  Nothing under ``src/`` imports from here.
"""
