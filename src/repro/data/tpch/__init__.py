"""TPC-H: schemas (:mod:`.schema`), the deterministic generator
(:mod:`.generator`), the dataset cache that serves generated tables
(:mod:`.dataset_cache`), and the benchmark query texts (:mod:`.queries`).
Each is imported by name: loading an archived dataset does not load the
generator."""
