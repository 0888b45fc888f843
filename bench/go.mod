module vmq/bench

go 1.22

require vmq v0.0.0

replace vmq => ../
