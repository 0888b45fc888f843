package vql

import "testing"

// FuzzParse feeds arbitrary text to the parser. No input may panic, and
// any input that parses must re-print to text that parses again to the
// same String() — the property TestRandomQueryRoundTrip checks for
// generated queries, here over hostile text.
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 30s ./internal/vql
func FuzzParse(f *testing.F) {
	seeds := []string{
		`SELECT FRAMES FROM jackson
		WHERE COUNT(car) = 1 AND COUNT(person) = 1 AND car LEFT OF person`,
		`SELECT COUNT(FRAMES) FROM jackson
		WHERE car[blue] LEFT OF stop-sign
		WINDOW HOPPING (SIZE 5000, ADVANCE BY 5000)`,
		`SELECT AVG(COUNT(bicycle IN RECT(0, 300, 150, 448))) FROM jackson`,
		`SELECT FRAMES FROM coral
		WHERE COUNT(person IN QUADRANT(LOWER LEFT)) >= 2 AND COUNT(person) = 3`,
		`SELECT FRAMES FROM jackson WHERE car IN QUADRANT(LOWER RIGHT)`,
		`SELECT FRAMES FROM jackson WHERE bicycle NOT IN RECT(0,0,100,448)`,
		`SELECT FRAMES FROM (PROCESS jackson PRODUCE cameraID, frameID USING maskrcnn)
		WHERE COUNT(car) = 1`,
		`SELECT FRAMES FROM (PROCESS jackson USING yolo)`,
		`SELECT FRAMES FROM (PROCESS jackson)`,
		`SELECT FRAMES FROM (jackson)`,
		`SELECT COUNT(FRAMES) FROM jackson
		WHERE COUNT(car) = 1
		WINDOW SLIDING (SIZE 1000, ADVANCE BY 100)`,
		`SELECT COUNT(FRAMES) FROM x WHERE COUNT(car) = 1
		WINDOW HOPPING (SIZE 1000, ADVANCE BY 100)`,
		`SELECT FRAMES FROM x WINDOW BOUNCING (SIZE 1, ADVANCE BY 1)`,
		`SELECT FRAMES FROM d WHERE (COUNT(*) >= 2 OR COUNT(car) = 0) AND NOT person ABOVE car`,
		`SELECT FRAMES FROM x WHERE COUNT(*) != 3`,
		`SELECT FRAMES FROM x WHERE COUNT(*) <= 3`,
		`select frames from Jackson where count(CAR) = 1`,
		`SELECT FRAMES FROM x WHERE COUNT(car) = 1 AND (person ABOVE car OR NOT COUNT(*) > 5)`,
		"stop-sign left-of",
		"x- ",
		"@", "#", "!x",
	}
	seeds = append(seeds, roundTripQueries...)
	seeds = append(seeds, badQueries...)
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		text := q.String()
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) re-prints to %q, which does not parse: %v", src, text, err)
		}
		if got := again.String(); got != text {
			t.Fatalf("Parse(%q) round trip changed:\n  %s\n  %s", src, text, got)
		}
	})
}
