"""Experiment harnesses: one module per evaluation table (Tables 2-9, Fig. 9).

``TABLES`` maps each table's name to its ``run(cfg) -> DataFrame``; the
spark-submit job ``jobs/run_table.py`` and the table benchmark walk it.
"""
from repro.harness import fig9, table2, table3, table4, table5, table6, table7, table8, table9

TABLES = {
    "table2": table2.run,
    "table3": table3.run,
    "table4": table4.run,
    "table5": table5.run,
    "table6": table6.run,
    "table7": table7.run,
    "table8": table8.run,
    "table9": table9.run,
    "fig9": fig9.run,
}
