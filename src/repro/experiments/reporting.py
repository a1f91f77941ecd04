"""Plain-text table rendering for benchmark harness output."""


def format_table(headers, rows, title=None):
    """Render an aligned text table. Cells are stringified; floats get
    two decimals unless already strings."""
    def cell(value):
        if isinstance(value, float):
            return '%.2f' % value
        return str(value)

    str_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))

    def line(values):
        return '  '.join(v.rjust(w) for v, w in zip(values, widths))

    out = []
    if title:
        out.append(title)
        out.append('=' * len(title))
    out.append(line(headers))
    out.append(line(['-' * w for w in widths]))
    for row in str_rows:
        out.append(line(row))
    return '\n'.join(out)


class FigureResult:
    """Structured output of one figure driver: headers + rows + the
    rendered table, plus a free-form dict for assertions in tests.

    ``warnings`` carries data-quality caveats (e.g. saturated
    observability rings) the CLI prints after the table so a truncated
    window never masquerades as a complete one.
    """

    def __init__(self, figure, headers, rows, notes=None, warnings=()):
        self.figure = figure
        self.headers = headers
        self.rows = rows
        self.notes = notes or {}
        self.warnings = tuple(warnings)

    def table(self):
        return format_table(self.headers, self.rows, title=self.figure)

    def __repr__(self):
        return '<FigureResult %s rows=%d>' % (self.figure, len(self.rows))
