"""Set-up probe, run in a fresh interpreter: prints the seconds taken to
import linksched, load the paper_iv config and bin its channel (M=16)."""

import time

start = time.perf_counter()
import linksched  # noqa: E402  (the import is what is being timed)

cfg = linksched.load_config("paper_iv")
linksched.discretize_channel(cfg.channel, 16)
print(repr(time.perf_counter() - start))
