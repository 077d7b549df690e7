"""SparkSession factory for the spark-submit entrypoints and the test suite.

One local session config: few shuffle partitions (the graphs are small),
Arrow on, and broadcast joins disabled so joins exercise the shuffle path.
The test suite's ``spark`` fixture (root ``conftest.py``) builds through
here too, after setting the driver memory before the JVM starts.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_session(app_name: str = "repro-job") -> SparkSession:
    s = (
        SparkSession.builder.appName(app_name)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s
