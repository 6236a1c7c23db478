"""Run a snippet in a fresh interpreter and report what it imported."""

import os
import subprocess
import sys

import soapfilm

SRC = os.path.dirname(os.path.dirname(soapfilm.__file__))


def loads(code, module):
    """Whether `module` is in sys.modules after `code` runs in a new interpreter.

    The snippet runs against this checkout's src/; a failing snippet (an
    assert in it, say) fails the caller through CalledProcessError.
    """
    code += f"; import sys; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    return out.strip() != "False"
