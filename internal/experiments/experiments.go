package experiments

import "decoydb/internal/report"

// Experiment is one reproducible paper artefact.
type Experiment struct {
	ID    string
	Title string
	Run   func(*Dataset) report.Artifact
}

// All lists every reproduced table and figure in paper order.
var All = []Experiment{
	{ID: "H1", Title: "Headline dataset counts", Run: Headline},
	{ID: "T4", Title: "Table 4: deployment", Run: Table4},
	{ID: "F2", Title: "Figure 2: hourly clients (low tier)", Run: Figure2},
	{ID: "F3", Title: "Figure 3: retention CDF by DBMS", Run: Figure3},
	{ID: "T5", Title: "Table 5: login attempts by country", Run: Table5},
	{ID: "T6", Title: "Table 6: top ASNs", Run: Table6},
	{ID: "T7", Title: "Table 7: login IPs by AS type", Run: Table7},
	{ID: "T12", Title: "Table 12: top MSSQL credentials", Run: Table12},
	{ID: "X1", Title: "Brute-force statistics", Run: BruteStats},
	{ID: "X2", Title: "Control group comparison", Run: ControlGroup},
	{ID: "F4", Title: "Figure 4: honeypot intersections", Run: Figure4},
	{ID: "T8", Title: "Table 8: classification and clusters", Run: Table8},
	{ID: "T9", Title: "Table 9: attack campaigns", Run: Table9},
	{ID: "T10", Title: "Table 10: exploiter countries", Run: Table10},
	{ID: "T11", Title: "Table 11: AS types vs behaviour", Run: Table11},
	{ID: "F5", Title: "Figure 5: retention by behaviour", Run: Figure5},
	{ID: "F6-F9", Title: "Figures 6-9: per-DBMS hourly series", Run: Figures6to9},
	{ID: "X3", Title: "Threat-intel coverage", Run: IntelCoverage},
	{ID: "X4", Title: "Configuration effects", Run: ConfigEffects},
	{ID: "X5", Title: "Ransom case study", Run: Ransom},
	{ID: "X6", Title: "Institutional scanners", Run: Institutional},
}

// ByID returns the experiment with the given ID, or nil.
func ByID(id string) *Experiment {
	for i := range All {
		if All[i].ID == id {
			return &All[i]
		}
	}
	return nil
}
