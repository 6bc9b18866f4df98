"""Re-read an exported CSV, so the export tests can compare what a run wrote."""


def import_csv(data: bytes) -> tuple[list[str], list[list]]:
    """Re-read an exported CSV into (columns, rows); numbers become floats."""
    lines = [ln for ln in data.decode("utf-8").splitlines() if ln and not ln.startswith("#")]
    columns = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        row = []
        for cell in ln.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(cell)
        rows.append(row)
    return columns, rows
