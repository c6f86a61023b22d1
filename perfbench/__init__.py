"""The reproduction's end-to-end benchmark (``python3 perfbench/run.py``).

See ``perfbench/NOTES.md`` for the workloads, the metrics and the layer map.
"""
