module graphmaze/bench

go 1.22

require graphmaze v0.0.0

replace graphmaze => ../
