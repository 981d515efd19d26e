"""The paper's claims: one module per figure, table and section."""
