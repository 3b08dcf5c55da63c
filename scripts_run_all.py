"""Regenerate every ``results/<name>.txt`` at its recorded scale.

One loop over ``repro.experiments.ARTIFACTS``: each artifact's
``run()`` defaults are the recorded scale and its ``render()`` is the
recorded text, so ``git diff --stat -- results/*.txt`` is empty after
an unchanged run. Set REPRO_JOBS=N to fan the design-sweep artifacts
(fig4, fig5) across N worker processes (repro.experiments.parallel);
results are bit-identical to the serial run.
"""
import os
import time

from repro.experiments import ARTIFACTS

if __name__ == "__main__":
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    for name, artifact in ARTIFACTS.items():
        t0 = time.time()
        module = artifact.load()
        inputs = {"jobs": jobs} if "jobs" in artifact.inputs else {}
        lines = module.render(module.run(**inputs))
        with open(f"results/{name}.txt", "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        print(f"{name} done in {time.time() - t0:.0f}s", flush=True)
    print("ALL DONE", flush=True)
