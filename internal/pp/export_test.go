package pp

// SetLabelingBudget lowers the canonical-labeling step budget for the
// refusal tests of the packages above pp; the returned function restores
// it.
func SetLabelingBudget(n int) (restore func()) {
	old := labelingBudget
	labelingBudget = n
	return func() { labelingBudget = old }
}
