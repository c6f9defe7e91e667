package exec

// colSource returns a ColStep.Source that hands the engine partition
// part's rows idx[part], val[part], in order.
func colSource[V ColValue](idx [][]int32, val [][]V) func(int) (KeyCol, ValCol[V]) {
	return func(part int) (KeyCol, ValCol[V]) { return idx[part], val[part] }
}
