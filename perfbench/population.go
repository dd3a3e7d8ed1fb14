package main

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// phasePop is one phase's population as the scenario text declares it:
// the sessions that ran the window, and the edits applied at its start.
type phasePop struct {
	Name                      string
	Active, Arrived, Departed int
}

// populationFromText reads the [phase] sections of a scenario file and
// works out each phase's population with the documented semantics of
// the phase keys: explicit departures of the oldest sessions, then
// churn of the remainder (replaced by fresh arrivals), then arrivals,
// then the absolute sessions target. It reads the text itself, not
// the program's parsed Scenario, so it is a second book against which
// scenario.Run's populations are checked. Only the population keys
// the benchmark's scenarios use are understood; any other population
// key is an error rather than a silently wrong expectation.
func populationFromText(text string) ([]phasePop, error) {
	type phase struct {
		name                    string
		sessions, arrive, leave int
		churn                   float64
	}
	var phases []*phase
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		s := sc.Text()
		if i := strings.IndexByte(s, '#'); i >= 0 {
			s = s[:i]
		}
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if strings.HasPrefix(s, "[") {
			f := strings.Fields(strings.Trim(s, "[]"))
			if len(f) == 2 && f[0] == "phase" {
				phases = append(phases, &phase{name: f[1], sessions: -1})
			} else if len(phases) > 0 {
				return nil, fmt.Errorf("line %d: section %q after the phases", line, s)
			}
			continue
		}
		if len(phases) == 0 {
			continue
		}
		key, value, ok := strings.Cut(s, "=")
		if !ok {
			return nil, fmt.Errorf("line %d: %q is not key = value", line, s)
		}
		key, value = strings.TrimSpace(key), strings.TrimSpace(value)
		p := phases[len(phases)-1]
		var err error
		switch key {
		case "sessions":
			p.sessions, err = strconv.Atoi(value)
		case "arrive":
			p.arrive, err = strconv.Atoi(value)
		case "depart":
			p.leave, err = strconv.Atoi(value)
		case "churn":
			p.churn, err = strconv.ParseFloat(value, 64)
		case "arrival-rate", "mix":
			err = fmt.Errorf("population key %q is not supported here", key)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("no [phase] sections")
	}

	out := make([]phasePop, len(phases))
	carried := 0
	for i, p := range phases {
		left := min(p.leave, carried)
		carried -= left
		churned := int(math.Floor(p.churn * float64(carried)))
		carried -= churned
		left += churned
		arrive := p.arrive + churned
		if p.sessions >= 0 {
			if have := carried + arrive; have > p.sessions {
				shed := have - p.sessions
				fromCarried := min(shed, carried)
				carried -= fromCarried
				left += fromCarried
				arrive -= shed - fromCarried
			} else {
				arrive += p.sessions - have
			}
		}
		carried += arrive
		out[i] = phasePop{Name: p.name, Active: carried, Arrived: arrive, Departed: left}
	}
	return out, nil
}
