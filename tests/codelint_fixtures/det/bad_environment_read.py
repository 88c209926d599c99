"""DET01 bad fixture: environment reads in a determinism-restricted
subsystem (linted as repro.simnet.fixture). A stray variable would
change which world a config names."""

import os
from os import environ, getenv


def population():
    return int(os.environ.get("REPRO_POPULATION", "20000"))  # DET01


def seed():
    return os.getenv("REPRO_SEED")  # DET01


def aliased():
    return (getenv("POPULATION"), environ.get("POPULATION"))  # DET01 x2
