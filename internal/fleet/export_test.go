package fleet

import (
	"time"

	"repro/internal/remedy"
)

// ScheduleAction schedules one remedy action on UE ueIndex at virtual time
// at, as a scripted intervention for the actuator tests. Call it between
// Build and the RunTo that reaches at.
func (f *Fleet) ScheduleAction(at time.Duration, ueIndex int, a remedy.Action) {
	ue := f.UEs[ueIndex]
	ue.K.At(at, func() { applyAction(ue, a, at) })
}
