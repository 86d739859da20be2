"""Experiment harnesses, one per table of the paper's evaluation section.

Each module exposes ``run(...)`` returning plain dict/row data,
``check(rows)``, which raises ``ValueError`` unless the rows keep the paper's
shape for that table, and ``format_table(rows)``, which renders the whole
result file. ``python -m repro.experiments [NAME ...]`` regenerates
``results/NAME.md`` from them. Scales are container-sized; see DESIGN.md §3
for the substitutions and EXPERIMENTS.md for paper-vs-measured numbers.
"""
