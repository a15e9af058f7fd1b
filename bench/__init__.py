"""End-to-end benchmark of the fluid-slip reproduction (see README.md).

``python -m bench run | trace | compare | measure``.  The package drives
the program under ``src/`` through its public functions only and never
imports it into the harness process.
"""
